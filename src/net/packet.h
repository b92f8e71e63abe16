// Packet model with dynamic packet state (§2.1 of the paper).
//
// The "scheduling header" block mirrors what the paper allows a UPS to carry:
// a slack value rewritten hop by hop (LSTF), a static priority (simple
// priority / SJF / SRPT), a static deadline (EDF), cumulative queueing
// (FIFO+) and — for the omniscient-initialization existence proof — a
// per-hop vector of target departure times. The cumulative queueing delay
// is the same number the measurement bookkeeping below the header keeps,
// so it is stored once, as queueing_delay.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "net/fault.h"
#include "sim/time.h"

namespace ups::net {

using node_id = std::int32_t;
inline constexpr node_id kInvalidNode = -1;

enum class packet_kind : std::uint8_t { data, ack };

struct packet {
  // --- identity ---
  std::uint64_t id = 0;
  std::uint64_t flow_id = 0;
  std::uint32_t seq_in_flow = 0;
  std::uint32_t size_bytes = 0;
  packet_kind kind = packet_kind::data;

  node_id src_host = kInvalidNode;
  node_id dst_host = kInvalidNode;

  // Router-level path: ingress router .. egress router. `hop` is the index
  // of the next router the packet has yet to be delivered to.
  std::vector<node_id> path;
  std::size_t hop = 0;

  // --- scheduling header (dynamic packet state) ---
  sim::time_ps slack = 0;            // LSTF: remaining slack
  std::int64_t priority = 0;         // static priority / SJF / SRPT rank
  sim::time_ps deadline = 0;         // EDF: o(p), never rewritten
  std::vector<sim::time_ps> hop_deadlines;  // omniscient per-hop targets
  std::uint64_t flow_size_bytes = 0;        // stamped at ingress (SJF)
  std::uint64_t remaining_flow_bytes = 0;   // stamped at ingress (SRPT)

  // --- transport header (simplified TCP) ---
  std::uint64_t tseq = 0;  // first byte offset carried by this segment
  std::uint64_t tack = 0;  // cumulative ack (next expected byte)

  // --- per-port scratch used by schedulers and the transmitter ---
  // A rank scheduler caches the rank it gives a packet in sched_key. A
  // packet preempted mid-transmission comes back with tx_remaining >= 0,
  // and its scheduler then keeps that rank instead of computing a new one.
  std::int64_t sched_key = 0;
  sim::time_ps tx_remaining = -1;    // <0: not in service at current port
  sim::time_ps port_enqueue_time = 0;

  // --- measurement bookkeeping (not part of any header) ---
  sim::time_ps created_at = 0;      // handed to the source NIC
  sim::time_ps ingress_time = -1;   // last-bit arrival at ingress router, i(p)
  // Total waiting across all ports so far; also FIFO+'s header value.
  sim::time_ps queueing_delay = 0;
  // Last-bit exit per router, appended by router ports while their network
  // records hop departures (trace_recorder's with_hop_times).
  std::vector<sim::time_ps> hop_departs;
  // EDF: tmin(p, hop - 1), the minimum time from the router the packet is
  // at to egress (network::tmin), which Appendix E's per-router priority
  // derives from static topology. Not header state: it caches that static
  // value so a rank costs no path walk. In a network whose schedulers rank
  // by it, the packet is stamped with tmin(p, 0) on reaching its ingress
  // router (0 before that), and each router->router link it crosses
  // subtracts its transmission plus propagation time (port::leave), the
  // same integers network::tmin sums. Elsewhere nothing stamps or reads it.
  sim::time_ps remaining_tmin = 0;
  // Replay accounting: the recorded o(p) and queueing delay this packet is
  // measured against. The streaming replay engine settles overdue counters
  // at egress, after the packet's record has left the trace cursor, so the
  // reference values must travel with the packet. -1 = not a replay packet.
  sim::time_ps ref_egress_time = -1;
  sim::time_ps ref_queueing_delay = 0;
  // Replay-under-loss: a packet recorded as dropped in the original run is
  // force-dropped at the same hop in replay (wire: leaving path[hop],
  // buffer: at path[hop]'s output queue). -1 = delivered normally.
  std::int32_t forced_drop_hop = -1;
  drop_kind forced_drop_kind = drop_kind::buffer;

  // --- flow-control scratch + stall bookkeeping ---
  // Credit ledger: which governed port's occupancy this packet currently
  // holds (consumed at fresh tx start) and which it held at the previous
  // hop (released once the last bit leaves the downstream router). -1 =
  // no credit held.
  std::int32_t credit_port = -1;
  std::int32_t credit_prev_port = -1;
  // Backpressure measurement: how often and how long this packet sat as a
  // blocked head waiting for downstream credits, and the hop where its
  // single longest wait happened (stall_max is the running max interval
  // backing that choice). The two 4-byte fields sit together so the packet
  // has no padding between them.
  std::uint32_t stall_count = 0;
  std::int32_t stall_hop = -1;
  sim::time_ps stall_time = 0;
  sim::time_ps stall_max = 0;
  // Replay-under-backpressure: a packet recorded as stalled is re-delayed
  // by its total recorded stall time at its longest-stall hop. -1 = never
  // stalled in the original run.
  std::int32_t forced_stall_hop = -1;
  sim::time_ps forced_stall_time = 0;

  [[nodiscard]] bool at_last_router() const noexcept {
    return hop + 1 >= path.size();
  }

  // Field by field; the vectors compare by contents, not capacity.
  friend bool operator==(const packet&, const packet&) = default;

  // Restores a recycled packet to the freshly-constructed state while
  // keeping the capacity of the embedded vectors, so pooled reuse performs
  // no heap allocation. Assigning from a default-constructed packet covers
  // every field, including ones added later.
  void reset() noexcept {
    packet fresh;
    fresh.path = std::move(path);
    fresh.hop_deadlines = std::move(hop_deadlines);
    fresh.hop_departs = std::move(hop_departs);
    fresh.path.clear();
    fresh.hop_deadlines.clear();
    fresh.hop_departs.clear();
    *this = std::move(fresh);
  }
};

class packet_pool;

// Deleter for pooled packets: returns the packet to its owning pool, or
// frees it outright when it was created without one (tests, ad-hoc tools).
// Defined in packet_pool.cpp so that packet.h stays dependency-free.
struct packet_recycler {
  packet_pool* pool = nullptr;
  void operator()(packet* p) const noexcept;
};

using packet_ptr = std::unique_ptr<packet, packet_recycler>;

// Creates an unpooled packet (destroyed with delete). Hot paths should use
// packet_pool::make() instead; this exists for tests and one-off tooling.
[[nodiscard]] inline packet_ptr make_packet() {
  return packet_ptr(new packet, packet_recycler{});
}

}  // namespace ups::net
