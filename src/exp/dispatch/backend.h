// Unified dispatch-backend API for the replay fabric.
//
// Every replay-universality experiment is a pure function of
// (scenario × seed × replay-mode); this layer owns how those jobs fan out.
// One job_plan (tasks + modes + options) runs identically on either
// backend, and both run each job through the same run_memory_job /
// run_disk_job and the same exception-to-slot conversion (run_guarded in
// process_coordinator.h):
//
//   serial   — a loop over the jobs on the calling thread (the reference)
//   process  — a coordinator that forks N worker processes over the shared
//              plan, hands each idle worker one job index over a socketpair
//              frame protocol (exp/dispatch/wire.h), merges results into
//              pre-assigned slots, and survives a worker dying mid-job
//              (reassign, respawn, classify — see process_coordinator.h)
//
// Results come back slot-ordered and byte-identical across backends: every
// job writes a pre-assigned slot, so output never depends on scheduling,
// worker count, or which worker (re)ran a job after a failure. The report
// carries a per-job status enum — a failing job marks its own slot and the
// rest of the plan still runs to completion (callers that want the old
// first-exception-wins contract call run_report::throw_if_failed). An
// ssh/container launcher later becomes just another spawn function behind
// this same interface.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/replay.h"
#include "exp/scenario.h"
#include "topo/topology.h"

namespace ups::exp {

// Wall-clock helper shared by the harness, the benches, and tracec.
[[nodiscard]] inline double wall_seconds_since(
    std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// One memory-plan job: record this scenario's original schedule, then
// replay it with each candidate mode.
struct shard_task {
  scenario sc;
  std::vector<core::replay_mode> modes;
};

struct shard_replay {
  core::replay_mode mode = core::replay_mode::lstf;
  core::replay_result result;
  double wall_seconds = 0;  // this replay's own wall-clock, informational
};

struct shard_result {
  scenario sc;
  std::uint64_t trace_packets = 0;
  sim::time_ps threshold_T = 0;
  double original_wall_seconds = 0;
  // Original-run in-flight residency (pool high-water mark) and source
  // accounting, so per-workload sweeps can compare steady-state behavior
  // across source kinds without rerunning the originals.
  std::uint64_t original_peak_pool_packets = 0;
  std::uint64_t original_flows_completed = 0;
  std::vector<shard_replay> replays;  // same order as the task's modes
};

struct shard_options {
  bool keep_outcomes = false;
  // Live flow control attached to every replay network (on top of the
  // re-enacted recorded stalls); default none. Originals take theirs from
  // scenario::flow instead.
  net::flow_spec replay_flow;
};

// One on-disk trace fanned across candidate replay modes. Every job opens
// its own cursor over the same path; a v3 cursor reads one block at a
// time, so a worker holds one block of the file and does no parse work.
struct disk_shard_task {
  std::string trace_path;
  topo::topology topology;
  sim::time_ps threshold_T = 0;
  std::vector<core::replay_mode> modes;
};

}  // namespace ups::exp

namespace ups::exp::dispatch {

enum class backend_kind : std::uint8_t { serial, process };

[[nodiscard]] const char* to_string(backend_kind k);

struct backend_spec {
  backend_kind kind = backend_kind::serial;
  std::size_t workers = 0;  // process backend; 0: one per online CPU
  // Fault injection (process backend, off at 0): the first worker spawned
  // SIGKILLs itself after *computing* its K-th job but before reporting
  // it, so that job is deterministically in flight at the moment of death
  // and the coordinator's reassign/rerun path runs on every invocation.
  std::uint64_t kill_worker_after = 0;
  // Test hook (process backend, off at 0): the first worker writes a
  // truncated garbage frame in place of its K-th result and exits —
  // exercises the coordinator's typed protocol-error classification.
  std::uint64_t garble_result_at = 0;
  // Stall injection (process backend, off at 0): the first worker spawned
  // hangs forever after *computing* its K-th job but before reporting it —
  // alive as a process yet silent on its socket — so the coordinator's
  // assign->result watchdog is what has to notice, kill, and reassign.
  std::uint64_t hang_worker_after = 0;
  // Watchdog deadline (process backend): a worker that has produced no
  // frame for this long after an assignment is classified timed_out,
  // SIGKILLed, and its job reassigned. 0 picks the default — generous
  // (15 min) because real replay jobs legitimately run minutes; tests
  // injecting hangs dial it down to keep the suite fast.
  std::int64_t worker_timeout_ms = 0;

  // Parses "serial" | "process[:N]" (tracec replay's --dispatch= syntax):
  // bare "process" runs one worker per online CPU, "process:N" N >= 1 of
  // them. Throws std::invalid_argument naming the spec on anything else,
  // "process:0" and a count size_t cannot hold included.
  [[nodiscard]] static backend_spec parse(const std::string& s);
};

// The one job description every backend consumes. Exactly one of
// tasks/disk is populated: a memory plan's jobs are its tasks (each job
// records an original and replays every mode), a disk plan's jobs are its
// modes (each job replays the shared trace file with one candidate).
struct job_plan {
  std::vector<shard_task> tasks;
  std::optional<disk_shard_task> disk;
  shard_options options;  // keep_outcomes + replay_flow

  [[nodiscard]] std::size_t job_count() const {
    return disk ? disk->modes.size() : tasks.size();
  }
  [[nodiscard]] static job_plan from_tasks(std::vector<shard_task> tasks,
                                           shard_options opt = {});
  [[nodiscard]] static job_plan from_disk(disk_shard_task task,
                                          shard_options opt = {});
};

enum class job_status : std::uint8_t {
  ok,      // result slot is valid
  failed,  // the job threw, or died with its worker on every attempt;
           // errors[] says what
};

[[nodiscard]] const char* to_string(job_status s);

// How a worker process died, classified from waitpid + the byte stream.
enum class worker_failure_kind : std::uint8_t {
  exited_early,      // clean exit(0) before shutdown was requested
  exit_code,         // exited with a nonzero status
  killed_by_signal,  // SIGKILL/SIGSEGV/... (detail = signal number)
  protocol_error,    // truncated or garbage frame on its socket
  timed_out,         // alive but silent past the assign->result deadline
};

[[nodiscard]] const char* to_string(worker_failure_kind k);

struct worker_failure {
  int worker = -1;  // spawn index (respawns keep counting up)
  worker_failure_kind kind = worker_failure_kind::exited_early;
  int detail = 0;  // exit status or signal number
  std::string message;
  std::vector<std::size_t> reassigned_jobs;  // in-flight at death, rerun
  bool respawned = false;  // a replacement worker was forked
};

struct run_report {
  std::vector<shard_result> results;       // memory plan, slot per task
  std::vector<shard_replay> disk_replays;  // disk plan, slot per mode
  std::vector<job_status> status;          // one per job, slot order
  std::vector<std::string> errors;         // parallel to status, "" when ok
  std::vector<worker_failure> worker_failures;  // process recovery log

  [[nodiscard]] bool all_ok() const;
  [[nodiscard]] std::size_t jobs_failed() const;
  // First failing slot's error as an exception — the legacy-wrapper
  // contract (callers that want partial results inspect status instead).
  void throw_if_failed() const;
};

// Runs every job of the plan on the chosen backend and returns the
// slot-ordered report. Byte-identical results across backends and worker
// counts. The process backend must be invoked while the calling process is
// otherwise single-threaded (it forks without exec).
[[nodiscard]] run_report run(const job_plan& plan, const backend_spec& spec);

// Executes one job of the plan in-process — the unit both backends run,
// exposed so tests can pin down exactly what crosses the wire.
[[nodiscard]] shard_result run_memory_job(const job_plan& plan,
                                          std::size_t job);
[[nodiscard]] shard_replay run_disk_job(const job_plan& plan,
                                        std::size_t job);

}  // namespace ups::exp::dispatch
