// Multi-process dispatch backend: a coordinator that forks N worker
// processes over the shared job_plan, hands each idle worker one job index
// over its socketpair (length-prefixed frames, exp/dispatch/wire.h),
// collects results into pre-assigned slots, and merges them byte-identical
// to the serial loop.
//
// Fork, not exec: a worker inherits the whole plan (scenarios, topology,
// modes) copy-on-write, so nothing but job indices travels coordinator ->
// worker, and only encoded results travel back (core/replay_codec.h). For
// a disk plan every worker opens its own cursor over the same trace path,
// which reads a v3 file one block at a time.
//
// Failure discipline: a worker dying mid-job (exit, SIGKILL, garbage on
// the wire, silence past the watchdog deadline) is detected via pipe-EOF +
// waitpid or the deadline, classified (worker_failure_kind), and its job
// is pushed back to the pending queue for a live worker — or a respawned
// replacement when none remain — to rerun. Jobs are pure functions, so a
// rerun reproduces the exact bytes the dead worker would have sent. A job
// that kills a worker on each of its kMaxJobAttempts tries is marked
// failed instead of looping forever. That also bounds respawns without a
// budget of their own: a replacement is forked only when no worker is
// left, and it is handed a pending job before its socket is polled, so it
// either finishes that job or uses up one of its attempts.
//
// Constraints: unix-only (throws elsewhere), and the calling process must
// be otherwise single-threaded at the moment of the fork.
#pragma once

#include <exception>
#include <string>

#include "exp/dispatch/backend.h"

namespace ups::exp::dispatch {

// Runs every job of the plan on forked workers, filling `rep`'s slots
// (sized and blank on entry, see run()).
void run_process(const job_plan& plan, const backend_spec& spec,
                 run_report& rep);

// Runs `job` and returns "" — or, if it throws, the error text its slot
// reports (the exception's message, never empty). The serial loop and a
// process worker both convert a failing job through this, so a failure
// reads the same on either backend.
template <typename Job>
[[nodiscard]] std::string run_guarded(Job&& job) {
  try {
    job();
  } catch (const std::exception& e) {
    return *e.what() != '\0' ? e.what() : "job failed";
  } catch (...) {
    return "unknown exception";
  }
  return {};
}

}  // namespace ups::exp::dispatch
