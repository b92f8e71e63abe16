// Schedule replay engine — the heart of §2's empirical methodology.
//
// Given a recorded schedule {(path(p), i(p), o(p))}, the engine rebuilds the
// topology with a candidate-UPS scheduler at every port, re-injects every
// packet at its ingress router at exactly i(p) with a header initialized
// from nothing but (i(p), o(p), path(p)) — black-box initialization — and
// measures how many packets miss their original output times. The
// omniscient mode instead initializes the per-hop vector of Appendix B.
//
// Packets are consumed lazily from a trace_cursor in ingress-time order,
// one record per next() (streaming injection): the engine runs the kernel
// up to each record's i(p) (sim::simulator::run_before) and only then
// materializes its packet, and overdue counters settle at egress, so peak
// memory is O(in-flight packets) instead of O(trace) — the difference
// between replaying a RocketFuel-scale trace from disk and not fitting it
// in RAM. Nothing is sized from the cursor's declared record count. Each
// packet is delivered inline, before any event at its instant runs, so
// injections precede every forwarded arrival at the same instant.
// tests/test_golden_digests.cpp pins the outcomes of every mode.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "net/network.h"
#include "net/trace.h"
#include "sim/time.h"

namespace ups::core {

enum class replay_mode : std::uint8_t {
  lstf,                  // slack(p) = o(p) - i(p) - tmin(p)
  lstf_preemptive,       // same, resume-style preemption enabled
  lstf_pheap,            // same ordering, pipelined-heap backing (§5)
  edf,                   // static header o(p), per-router deadline priority
  priority_output_time,  // simple priorities with priority(p) = o(p), §2.3(7)
  omniscient,            // per-hop scheduled times from the original run
};

[[nodiscard]] const char* to_string(replay_mode m);

struct replay_outcome {
  std::uint64_t id = 0;
  sim::time_ps original_out = 0;
  sim::time_ps replay_out = 0;
  sim::time_ps original_queueing = 0;
  sim::time_ps replay_queueing = 0;
  [[nodiscard]] sim::time_ps lateness() const noexcept {
    return replay_out - original_out;
  }
};

struct replay_result {
  // Per-packet outcomes sorted by packet id (deterministic across modes;
  // only filled when replay_options::keep_outcomes).
  std::vector<replay_outcome> outcomes;
  std::uint64_t total = 0;             // packets that reached egress
  std::uint64_t overdue = 0;           // o'(p) > o(p)
  std::uint64_t overdue_beyond_T = 0;  // o'(p) > o(p) + T
  // Packets force-dropped during replay because the original run recorded
  // them as lost (replay-under-loss). Excluded from `total` and from every
  // overdue counter/fraction: a packet that never egressed in the original
  // schedule has no o(p) to be late against. total + dropped == injected.
  std::uint64_t dropped = 0;
  sim::time_ps threshold_T = 0;
  // Residency high-water marks: distinct packet objects the replay's pool
  // ever allocated (== peak simultaneously-live packets) and the most
  // kernel heap entries pending at once (sim::simulator::peak_entries).
  // Streaming injection keeps both at O(in-flight), not O(trace).
  // Informational — not compared by identity checks in tests/benches.
  std::uint64_t peak_pool_packets = 0;
  std::uint64_t peak_event_slots = 0;

  [[nodiscard]] double frac_overdue() const {
    return total == 0 ? 0.0 : static_cast<double>(overdue) / total;
  }
  [[nodiscard]] double frac_overdue_beyond_T() const {
    return total == 0 ? 0.0 : static_cast<double>(overdue_beyond_T) / total;
  }
};

// Populates an empty network with the experiment's nodes and links (same
// callable used for the original run and the replay run).
using topology_builder = std::function<void(net::network&)>;

struct replay_options {
  replay_mode mode = replay_mode::lstf;
  // Overdue tolerance T: one transmission time on the bottleneck link.
  sim::time_ps threshold_T = 0;
  // Keep per-packet outcomes (Figure 1 needs them; Table 1 does not).
  bool keep_outcomes = true;
  // Live flow control for the replay network (net::flow_spec, default
  // none). Recorded stalls re-enact regardless; enabling this additionally
  // governs the replay's own links, so replay-under-live-backpressure can
  // be studied with the same credit/pause grammar as originals.
  net::flow_spec flow;
  // Omniscient-mode header quantization (§5's "least information" open
  // question): per-hop deadlines are rounded down to multiples of this
  // quantum before replay, modelling a header with fewer bits of timing
  // precision. 0 = exact (Appendix B's perfect replay).
  sim::time_ps omniscient_quantum = 0;
};

// Replays the schedule streamed by `cur` over the given topology and
// reports overdue statistics. The cursor must yield records in
// non-decreasing ingress-time order from time 0 on (trace::ingress_cursor()
// or a trace_stream_reader over a sort_by_ingress()ed file); a record that
// enters before its predecessor, or before 0, throws std::invalid_argument
// naming the record and both times.
[[nodiscard]] replay_result replay_trace(net::trace_cursor& cur,
                                         const topology_builder& topo,
                                         const replay_options& opt);

// Convenience: replays an in-memory trace through its ingress cursor.
[[nodiscard]] replay_result replay_trace(const net::trace& tr,
                                         const topology_builder& topo,
                                         const replay_options& opt);

}  // namespace ups::core
