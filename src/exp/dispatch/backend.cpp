#include "exp/dispatch/backend.h"

#include <atomic>
#include <stdexcept>
#include <thread>
#include <utility>

#include "exp/dispatch/process_coordinator.h"
#include "exp/replay_experiment.h"

namespace ups::exp::dispatch {

const char* to_string(backend_kind k) {
  switch (k) {
    case backend_kind::serial: return "serial";
    case backend_kind::thread: return "thread";
    case backend_kind::process: return "process";
  }
  return "?";
}

const char* to_string(job_status s) {
  switch (s) {
    case job_status::ok: return "ok";
    case job_status::failed: return "failed";
    case job_status::not_run: return "not_run";
  }
  return "?";
}

const char* to_string(worker_failure_kind k) {
  switch (k) {
    case worker_failure_kind::exited_early: return "exited_early";
    case worker_failure_kind::exit_code: return "exit_code";
    case worker_failure_kind::killed_by_signal: return "killed_by_signal";
    case worker_failure_kind::protocol_error: return "protocol_error";
    case worker_failure_kind::timed_out: return "timed_out";
  }
  return "?";
}

backend_spec backend_spec::parse(const std::string& s) {
  backend_spec spec;
  std::string kind = s;
  const auto colon = s.find(':');
  if (colon != std::string::npos) {
    kind = s.substr(0, colon);
    const std::string count = s.substr(colon + 1);
    if (count.empty() ||
        count.find_first_not_of("0123456789") != std::string::npos) {
      throw std::invalid_argument("dispatch spec '" + s +
                                  "': worker count must be a number");
    }
    spec.workers = std::stoull(count);
  }
  if (kind == "serial") {
    spec.kind = backend_kind::serial;
    if (colon != std::string::npos) {
      throw std::invalid_argument("dispatch spec '" + s +
                                  "': serial takes no worker count");
    }
  } else if (kind == "thread") {
    spec.kind = backend_kind::thread;
  } else if (kind == "process") {
    spec.kind = backend_kind::process;
  } else {
    throw std::invalid_argument(
        "dispatch spec '" + s +
        "': expected serial | thread[:N] | process[:N]");
  }
  return spec;
}

job_plan job_plan::from_tasks(std::vector<shard_task> tasks,
                              shard_options opt) {
  job_plan p;
  p.tasks = std::move(tasks);
  p.options = opt;
  return p;
}

job_plan job_plan::from_disk(disk_shard_task task, shard_options opt) {
  job_plan p;
  p.disk = std::move(task);
  p.options = opt;
  return p;
}

bool run_report::all_ok() const {
  for (const job_status s : status) {
    if (s != job_status::ok) return false;
  }
  return true;
}

std::size_t run_report::jobs_failed() const {
  std::size_t n = 0;
  for (const job_status s : status) {
    if (s != job_status::ok) ++n;
  }
  return n;
}

void run_report::throw_if_failed() const {
  for (std::size_t j = 0; j < status.size(); ++j) {
    if (status[j] == job_status::ok) continue;
    throw std::runtime_error(
        "dispatch job " + std::to_string(j) + " " +
        std::string(to_string(status[j])) +
        (errors[j].empty() ? "" : (": " + errors[j])));
  }
}

job_outcomes run_jobs(std::size_t jobs, std::size_t workers,
                      const std::function<void(std::size_t)>& body) {
  job_outcomes out;
  out.status.assign(jobs, job_status::ok);
  out.errors.assign(jobs, std::string());
  if (jobs == 0) return out;
  // Each job owns its pre-assigned slot in both vectors, so recording a
  // failure is race-free without a lock — and unlike the retired
  // parallel_for_jobs, one throwing job never abandons the rest.
  const auto guarded = [&](std::size_t i) {
    try {
      body(i);
    } catch (const std::exception& e) {
      out.status[i] = job_status::failed;
      out.errors[i] = e.what();
    } catch (...) {
      out.status[i] = job_status::failed;
      out.errors[i] = "unknown exception";
    }
  };
  if (workers == 0) workers = std::thread::hardware_concurrency();
  if (workers > jobs) workers = jobs;
  if (workers <= 1) {
    for (std::size_t i = 0; i < jobs; ++i) guarded(i);
    return out;
  }
  std::atomic<std::size_t> next{0};
  const auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= jobs) return;
      guarded(i);
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::size_t t = 0; t < workers; ++t) pool.emplace_back(worker);
  for (auto& t : pool) t.join();
  return out;
}

shard_result run_memory_job(const job_plan& plan, std::size_t job) {
  const shard_task& t = plan.tasks[job];
  const auto t0 = std::chrono::steady_clock::now();
  const original_run orig = run_original(t.sc);
  shard_result r;
  r.sc = t.sc;
  r.trace_packets = orig.trace.packets.size();
  r.threshold_T = orig.threshold_T;
  r.original_wall_seconds = wall_seconds_since(t0);
  r.original_peak_pool_packets = orig.peak_pool_packets;
  r.original_flows_completed = orig.flows_completed;
  r.replays.resize(t.modes.size());
  for (std::size_t m = 0; m < t.modes.size(); ++m) {
    const auto tm = std::chrono::steady_clock::now();
    r.replays[m].mode = t.modes[m];
    r.replays[m].result = run_replay(orig, t.modes[m],
                                     plan.options.keep_outcomes,
                                     plan.options.replay_flow);
    r.replays[m].wall_seconds = wall_seconds_since(tm);
  }
  return r;
}

shard_replay run_disk_job(const job_plan& plan, std::size_t job) {
  const disk_shard_task& d = *plan.disk;
  const auto t0 = std::chrono::steady_clock::now();
  shard_replay out;
  out.mode = d.modes[job];
  out.result = run_replay_file(d.trace_path, d.topology, d.threshold_T,
                               out.mode, plan.options.keep_outcomes,
                               plan.options.replay_flow);
  out.wall_seconds = wall_seconds_since(t0);
  return out;
}

namespace {

// Serial/thread backends. The memory plan keeps the PR-2 two-stage shape —
// originals fan out over tasks, then replays over the denser (task × mode)
// axis — because a plan with fewer tasks than workers still deserves full
// occupancy in stage 2. Per-job status folds to the task slot.
run_report run_local(const job_plan& plan, std::size_t workers) {
  run_report rep;
  const std::size_t jobs = plan.job_count();
  rep.status.assign(jobs, job_status::ok);
  rep.errors.assign(jobs, std::string());

  if (plan.disk) {
    rep.disk_replays.resize(jobs);
    auto out = run_jobs(jobs, workers, [&](std::size_t m) {
      rep.disk_replays[m] = run_disk_job(plan, m);
    });
    rep.status = std::move(out.status);
    rep.errors = std::move(out.errors);
    return rep;
  }

  const auto& tasks = plan.tasks;
  rep.results.resize(jobs);
  std::vector<original_run> originals(jobs);

  // Stage 1: one original recording per scenario. Each job builds its own
  // simulator + network inside run_original; nothing is shared.
  auto stage1 = run_jobs(jobs, workers, [&](std::size_t i) {
    const auto t0 = std::chrono::steady_clock::now();
    originals[i] = run_original(tasks[i].sc);
    shard_result& r = rep.results[i];
    r.sc = tasks[i].sc;
    r.trace_packets = originals[i].trace.packets.size();
    r.threshold_T = originals[i].threshold_T;
    r.original_wall_seconds = wall_seconds_since(t0);
    r.original_peak_pool_packets = originals[i].peak_pool_packets;
    r.original_flows_completed = originals[i].flows_completed;
    r.replays.resize(tasks[i].modes.size());
  });
  rep.status = std::move(stage1.status);
  rep.errors = std::move(stage1.errors);

  // Stage 2: replays fan out over (scenario × mode) for every task whose
  // original succeeded. The recorded traces are shared read-only; every
  // job owns its replay network and writes its pre-assigned slot, so
  // output order never depends on scheduling.
  std::vector<std::pair<std::size_t, std::size_t>> pairs;  // (task, mode)
  for (std::size_t i = 0; i < jobs; ++i) {
    if (rep.status[i] != job_status::ok) continue;
    rep.results[i].sc = tasks[i].sc;
    for (std::size_t m = 0; m < tasks[i].modes.size(); ++m) {
      pairs.emplace_back(i, m);
    }
  }
  auto stage2 = run_jobs(pairs.size(), workers, [&](std::size_t j) {
    const auto [i, m] = pairs[j];
    const auto t0 = std::chrono::steady_clock::now();
    shard_replay& out = rep.results[i].replays[m];
    out.mode = tasks[i].modes[m];
    out.result = run_replay(originals[i], out.mode,
                            plan.options.keep_outcomes,
                            plan.options.replay_flow);
    out.wall_seconds = wall_seconds_since(t0);
  });
  for (std::size_t j = 0; j < pairs.size(); ++j) {
    if (stage2.status[j] == job_status::ok) continue;
    const auto [i, m] = pairs[j];
    if (rep.status[i] == job_status::ok) {
      rep.status[i] = job_status::failed;
      rep.errors[i] = "replay mode " +
                      std::string(core::to_string(tasks[i].modes[m])) +
                      ": " + stage2.errors[j];
    }
  }
  return rep;
}

}  // namespace

run_report run(const job_plan& plan, const backend_spec& spec) {
  if (plan.disk && !plan.tasks.empty()) {
    throw std::invalid_argument(
        "job_plan: populate tasks or disk, not both");
  }
  switch (spec.kind) {
    case backend_kind::serial: return run_local(plan, 1);
    case backend_kind::thread: return run_local(plan, spec.workers);
    case backend_kind::process: return run_process(plan, spec);
  }
  throw std::invalid_argument("unknown backend kind");
}

}  // namespace ups::exp::dispatch
