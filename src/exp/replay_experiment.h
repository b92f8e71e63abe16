// End-to-end replay experiments (§2.3): run an original schedule under a
// scenario's scheduler collection, record the trace, then replay it with a
// candidate UPS and measure overdue fractions — the Table 1 pipeline.
#pragma once

#include "core/replay.h"
#include "exp/scenario.h"
#include "net/trace.h"
#include "topo/topology.h"

namespace ups::exp {

struct original_run {
  topo::topology topology;
  net::trace trace;
  sim::time_ps threshold_T = 0;  // 1500B at the bottleneck rate
  double per_host_rate_bps = 0.0;
  // Residency high-water marks of the original (recording) run: distinct
  // packet objects the pool ever allocated and the event slab's capacity.
  // The steady-state evidence for paced/closed-loop sources: an open-loop
  // elephant burst parks most of the trace in one egress queue, a paced or
  // bounded-outstanding source keeps this at O(in-flight).
  std::uint64_t peak_pool_packets = 0;
  std::uint64_t peak_event_slots = 0;
  // Source accounting (closed-loop: flows delivered end-to-end).
  std::uint64_t flows_completed = 0;
  std::uint64_t peak_outstanding_flows = 0;
};

// Runs the scenario's original schedule over its calibrated traffic source
// (scenario::workload_kind — open-loop, paced, closed-loop, or incast) and
// records it.
[[nodiscard]] original_run run_original(const scenario& sc);

// Replays a recorded run with the given candidate UPS. The single place
// that maps an original_run onto replay_options — the serial benches and
// the sharded harness both go through here.
[[nodiscard]] core::replay_result run_replay(const original_run& orig,
                                             core::replay_mode mode,
                                             bool keep_outcomes = false,
                                             const net::flow_spec& flow = {});

// Replays a trace straight from disk over `topology`: the file's format is
// sniffed (net::open_trace_cursor), so a v3 trace replays through the
// block-decoding cursor and a v1 text trace through the streaming parser.
// A v1 file must be ingress-sorted (net::sort_by_ingress before saving); v3
// carries its own ingress order and needs no preparation.
[[nodiscard]] core::replay_result run_replay_file(
    const std::string& trace_path, const topo::topology& topology,
    sim::time_ps threshold_T, core::replay_mode mode,
    bool keep_outcomes = false, const net::flow_spec& flow = {});

}  // namespace ups::exp

namespace ups::core {
// Retired injection choice: replay always streams. It survives, with the
// two exp overloads below, only because benchmark/upsbench.cpp still passes
// core::injection_mode::streaming to run_replay and run_replay_file; delete
// all three with the next change to benchmark/.
enum class injection_mode : std::uint8_t { streaming };
}  // namespace ups::core

namespace ups::net {
// Retired page-cache choice: every trace reader drains its file front to
// back. Kept for the same reason as core::injection_mode — upsbench.cpp
// passes net::trace_access::sequential to run_replay_file — and deleted
// with it.
enum class trace_access : std::uint8_t { sequential };
}  // namespace ups::net

namespace ups::exp {

[[nodiscard]] inline core::replay_result run_replay(
    const original_run& orig, core::replay_mode mode, bool keep_outcomes,
    core::injection_mode, const net::flow_spec& flow = {}) {
  return run_replay(orig, mode, keep_outcomes, flow);
}

[[nodiscard]] inline core::replay_result run_replay_file(
    const std::string& trace_path, const topo::topology& topology,
    sim::time_ps threshold_T, core::replay_mode mode, bool keep_outcomes,
    core::injection_mode, net::trace_access,
    const net::flow_spec& flow = {}) {
  return run_replay_file(trace_path, topology, threshold_T, mode,
                         keep_outcomes, flow);
}

// Convenience: original + LSTF replay in one call (a Table 1 row).
[[nodiscard]] core::replay_result table1_row(const scenario& sc);

}  // namespace ups::exp
