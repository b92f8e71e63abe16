// Schedule traces: the record side of the paper's replay framework.
//
// A trace is the paper's "schedule": {(path(p), i(p), o(p))} for every
// packet, plus the measurement extras the evaluation needs (total queueing
// delay for Figure 1, per-hop departures for omniscient initialization).
#pragma once

#include <cstdint>
#include <deque>
#include <stdexcept>
#include <vector>

#include "net/network.h"
#include "net/packet.h"
#include "sim/time.h"

namespace ups::net {

// Thrown by every trace reader — text and binary — on malformed input: bad
// magic, unsupported version, truncation (including mid-record EOF), a
// declared record count that disagrees with the records actually present,
// or a footer index out of ingress order. Derives from std::runtime_error
// so callers that only care about "the trace is unreadable" keep working.
struct trace_format_error : std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct packet_record {
  std::uint64_t id = 0;
  std::uint64_t flow_id = 0;
  std::uint32_t seq_in_flow = 0;
  std::uint32_t size_bytes = 0;
  node_id src_host = kInvalidNode;
  node_id dst_host = kInvalidNode;
  std::vector<node_id> path;
  sim::time_ps ingress_time = -1;  // i(p)
  sim::time_ps egress_time = -1;   // o(p)
  sim::time_ps queueing_delay = 0;
  std::uint64_t flow_size_bytes = 0;
  std::vector<sim::time_ps> hop_departs;  // per-router last-bit exits
  // Drop record (lossy originals): the packet died at path[drop_hop] —
  // evicted at that router's output buffer, or lost on the wire leaving it
  // — at drop_time, and egress_time stays -1. drop_hop < 0: delivered.
  std::int32_t drop_hop = -1;
  drop_kind dropped_kind = drop_kind::buffer;
  sim::time_ps drop_time = -1;
  // Stall record (backpressured originals): the packet sat parked as a
  // blocked head stall_count times for stall_time total, longest at
  // path[stall_hop]'s output port. stall_count == 0: never stalled.
  std::int32_t stall_hop = -1;
  std::uint32_t stall_count = 0;
  sim::time_ps stall_time = 0;

  [[nodiscard]] bool dropped() const noexcept { return drop_hop >= 0; }
  [[nodiscard]] bool stalled() const noexcept { return stall_count > 0; }
};

// Pull-based source of packet records in non-decreasing ingress-time order —
// the contract the streaming replay engine injects against, one record per
// next(). Implementations may own their storage (file readers) or view
// someone else's (in-memory traces); the returned pointer is valid until
// the next next() call.
class trace_cursor {
 public:
  virtual ~trace_cursor() = default;
  // Next record, or nullptr when exhausted.
  [[nodiscard]] virtual const packet_record* next() = 0;
  // Appends the next record to `out` and returns 1, or returns 0 at end.
  // Nothing in the library calls this; it survives only because the
  // benchmark harness (benchmark/upsbench.cpp) still overrides it in its
  // timing wrapper and drains traces through it. Delete it with the next
  // change to benchmark/.
  virtual std::size_t next_run(std::vector<const packet_record*>& out) {
    const packet_record* r = next();
    if (r == nullptr) return 0;
    out.push_back(r);
    return 1;
  }
  // The record count the source declares up front (a v1 header's count, a
  // v3 header's record_count, an in-memory trace's size), 0 when unknown.
  // A v1 count is unchecked until the records run out, so callers must not
  // size an allocation from it.
  [[nodiscard]] virtual std::size_t size_hint() const noexcept { return 0; }
};

struct trace;

// Cursor over an in-memory trace, yielding records sorted by
// (ingress_time, position in the trace) without copying them: only pointers
// to the records are materialized, never a second copy of the packets. The
// order is computed once, at construction, from (ingress_time, position)
// keys read in one pass, so the sort never touches a record, and each
// position is resolved to its record's address there, so next() indexes no
// deque.
class trace_ingress_cursor final : public trace_cursor {
 public:
  explicit trace_ingress_cursor(const trace& t);

  [[nodiscard]] const packet_record* next() override;
  [[nodiscard]] std::size_t size_hint() const noexcept override {
    return order_.size();
  }

 private:
  std::vector<const packet_record*> order_;
  std::size_t pos_ = 0;
};

struct trace {
  // Appended in fixed blocks that never move: a record stays where it was
  // put until the trace is destroyed or sorted, so cursor pointers and
  // references taken while recording stay valid, and a recording never
  // copies its records into a larger buffer.
  std::deque<packet_record> packets;

  // Streams the trace in ingress-time order (recorders append in egress
  // order, so replay cannot just walk `packets`). Lvalues only: the cursor
  // views this trace's storage, so a cursor off a temporary would dangle.
  [[nodiscard]] trace_ingress_cursor ingress_cursor() const& {
    return trace_ingress_cursor(*this);
  }
  trace_ingress_cursor ingress_cursor() && = delete;
};

// Reorders `packets` by (ingress_time, previous position), the order
// trace_ingress_cursor yields, by moving every record into fresh storage in
// that order (earlier pointers into the trace dangle). A trace saved after
// this is streamable by trace_stream_reader + replay without an in-memory
// sort on the consumer side.
void sort_by_ingress(trace& t);

// Hooks a network's egress callback and accumulates one record per packet.
// Keep the recorder alive for the duration of the simulation.
class trace_recorder {
 public:
  // with_hop_times: switch the network's per-router departure recording
  // on (network::records_hops), so each record carries hop_departs. Only
  // omniscient-initialization replays need them; they cost memory.
  explicit trace_recorder(network& net, bool with_hop_times = false);

  [[nodiscard]] trace take() { return std::move(result_); }

 private:
  void record(const packet& p, sim::time_ps now, std::int32_t drop_hop,
              drop_kind kind);

  trace result_;
};

}  // namespace ups::net
