// Multi-process dispatch backend: a coordinator that forks N worker
// processes over the shared job_plan, hands out contiguous job ranges over
// per-worker socketpairs (length-prefixed frames, exp/dispatch/wire.h),
// collects results into pre-assigned slots, and merges them byte-identical
// to the serial loop.
//
// Fork, not exec: a worker inherits the whole plan (scenarios, topology,
// modes) copy-on-write, so nothing but job indices travels coordinator ->
// worker, and only encoded results travel back (core/replay_codec.h). For
// a disk plan every worker opens its own cursor over the same v3 trace
// path — a read-only mmap the kernel backs with one physical copy.
//
// Failure discipline: a worker dying mid-run (exit, SIGKILL, garbage on
// the wire) is detected via pipe-EOF + waitpid, classified
// (worker_failure_kind), and its in-flight range is pushed back to the
// pending queue for a live worker — or a respawned replacement when none
// remain — to rerun. Jobs are pure functions, so a rerun reproduces the
// exact bytes the dead worker would have sent. A job that keeps killing
// workers is marked failed after a bounded number of attempts instead of
// looping forever; if the respawn budget runs out, the untouched jobs
// report not_run rather than hanging.
//
// Constraints: unix-only (throws elsewhere), and the calling process must
// be otherwise single-threaded at the moment of the fork.
#pragma once

#include "exp/dispatch/backend.h"

namespace ups::exp::dispatch {

[[nodiscard]] run_report run_process(const job_plan& plan,
                                     const backend_spec& spec);

}  // namespace ups::exp::dispatch
