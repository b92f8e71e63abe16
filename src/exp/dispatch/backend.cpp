#include "exp/dispatch/backend.h"

#include <charconv>
#include <stdexcept>
#include <system_error>
#include <utility>

#include "exp/dispatch/process_coordinator.h"
#include "exp/replay_experiment.h"

namespace ups::exp::dispatch {

const char* to_string(backend_kind k) {
  switch (k) {
    case backend_kind::serial: return "serial";
    case backend_kind::process: return "process";
  }
  return "?";
}

const char* to_string(job_status s) {
  switch (s) {
    case job_status::ok: return "ok";
    case job_status::failed: return "failed";
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
  const auto colon = s.find(':');
  const std::string kind = s.substr(0, colon);
  if (kind == "serial") {
    if (colon != std::string::npos) {
      throw std::invalid_argument("dispatch spec '" + s +
                                  "': serial takes no worker count");
    }
    return spec;
  }
  if (kind != "process") {
    throw std::invalid_argument("dispatch spec '" + s +
                                "': expected serial | process[:N]");
  }
  spec.kind = backend_kind::process;
  if (colon == std::string::npos) return spec;  // one per online CPU
  const char* first = s.data() + colon + 1;
  const char* last = s.data() + s.size();
  const auto [end, ec] = std::from_chars(first, last, spec.workers);
  if (ec == std::errc::result_out_of_range) {
    throw std::invalid_argument("dispatch spec '" + s +
                                "': worker count out of range");
  }
  if (ec != std::errc{} || end != last) {
    throw std::invalid_argument("dispatch spec '" + s +
                                "': worker count must be a number");
  }
  if (spec.workers == 0) {
    throw std::invalid_argument(
        "dispatch spec '" + s +
        "': worker count must be at least 1 (bare 'process' runs one per "
        "online CPU)");
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

run_report run(const job_plan& plan, const backend_spec& spec) {
  if (plan.disk && !plan.tasks.empty()) {
    throw std::invalid_argument(
        "job_plan: populate tasks or disk, not both");
  }
  // Every slot starts ok and empty; a memory slot carries its task's
  // scenario, so a failed job's slot reads the same on either backend.
  const std::size_t jobs = plan.job_count();
  run_report rep;
  rep.status.assign(jobs, job_status::ok);
  rep.errors.assign(jobs, std::string());
  if (plan.disk) {
    rep.disk_replays.resize(jobs);
  } else {
    rep.results.resize(jobs);
    for (std::size_t j = 0; j < jobs; ++j) {
      rep.results[j].sc = plan.tasks[j].sc;
    }
  }
  if (spec.kind == backend_kind::process) {
    run_process(plan, spec, rep);
    return rep;
  }
  // Serial: each job through the same run_*_job and run_guarded a process
  // worker applies, minus the wire.
  for (std::size_t j = 0; j < jobs; ++j) {
    rep.errors[j] = run_guarded([&] {
      if (plan.disk) {
        rep.disk_replays[j] = run_disk_job(plan, j);
      } else {
        rep.results[j] = run_memory_job(plan, j);
      }
    });
    if (!rep.errors[j].empty()) rep.status[j] = job_status::failed;
  }
  return rep;
}

}  // namespace ups::exp::dispatch
