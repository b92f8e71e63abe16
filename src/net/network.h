// Store-and-forward network: nodes, directed ports, static shortest-path
// routing, packet forwarding, and measurement hooks.
//
// Routing keeps one shortest-path tree per source router, built on its
// first lookup, whose entry for a node is the port that reaches it (its
// predecessor is that port's from()). route() reads a path off the tree,
// and for_each_route_port reads a route's ports off it without building a
// path or scanning an out-port list.
//
// Matches the paper's model (§2.1): the input is a set of packets with
// ingress arrival times and fixed paths; every router runs a per-port
// scheduling algorithm; i(p) is the last-bit arrival at the ingress router
// and o(p) the last-bit departure from the egress router.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/fault.h"
#include "net/flow_control.h"
#include "net/node.h"
#include "net/packet.h"
#include "net/packet_pool.h"
#include "net/port.h"
#include "net/routing.h"
#include "net/scheduler.h"
#include "sim/simulator.h"
#include "sim/units.h"

namespace ups::net {

// Context handed to the scheduler factory for each port, so experiments can
// assign different algorithms to different routers (e.g. half FQ, half
// FIFO+) or treat host NICs specially.
struct port_info {
  std::int32_t port_id;
  node_id from;
  node_id to;
  node_kind from_kind;
  sim::bits_per_sec rate;
};

using scheduler_factory =
    std::function<std::unique_ptr<scheduler>(const port_info&)>;

struct network_hooks {
  // Last bit of p arrived at its ingress router (defines i(p)).
  std::function<void(const packet&, sim::time_ps)> on_ingress;
  // Last bit of p left its egress router (defines o(p)).
  std::function<void(const packet&, sim::time_ps)> on_egress;
  // A packet died: evicted/tail-dropped at a full buffer (`at` = the node
  // whose output port dropped it) or consumed by a link fault process on
  // the wire (`at` = the transmitting node).
  std::function<void(const packet&, node_id at, sim::time_ps, drop_kind)>
      on_drop;
};

struct network_stats {
  std::uint64_t injected = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;       // all drops, buffer + wire
  std::uint64_t dropped_wire = 0;  // link-fault (and forced wire) drops only
  // Flow control / backpressure. flow_blocks counts head packets parking on
  // a credit-starved link, flow_resumes the matching unblocks, and
  // flow_stall_time their summed parked duration. The watchdog counters
  // classify its no-progress checks: transient = blocked ports exist but
  // the network made progress since the last check; persistent = a full
  // stuck window passed without progress and without a detectable wait-for
  // cycle (a true cycle throws flow_deadlock_error instead of counting).
  std::uint64_t flow_blocks = 0;
  std::uint64_t flow_resumes = 0;
  sim::time_ps flow_stall_time = 0;
  std::uint64_t watchdog_transient = 0;
  std::uint64_t watchdog_persistent = 0;
};

class network {
 public:
  explicit network(sim::simulator& sim) : sim_(sim) {}
  network(const network&) = delete;
  network& operator=(const network&) = delete;

  // --- construction (before build()) ---
  node_id add_router(std::string name);
  node_id add_host(std::string name);
  // Adds a duplex link (two directed ports once built).
  void add_link(node_id a, node_id b, sim::bits_per_sec rate,
                sim::time_ps prop_delay);
  void set_scheduler_factory(scheduler_factory f) { factory_ = std::move(f); }
  // Buffer capacity per port in bytes; <= 0 means unlimited. A packet
  // strictly larger than a finite buffer can never be admitted — it tail-
  // drops even at an idle port — so finite budgets should be >= the MTU.
  void set_buffer_bytes(std::int64_t b) {
    if (built_) {
      throw std::logic_error("network: set_buffer_bytes after build()");
    }
    buffer_bytes_ = b;
  }
  void set_preemption(bool on) { preemption_ = on; }
  // Attaches a fault process to every router->router port at build() time,
  // seeded so drop decisions are a pure function of (seed, port id,
  // decision index). Host uplinks stay reliable: every traced packet still
  // has a well-defined i(p).
  void set_fault(const fault_spec& f, std::uint64_t seed);
  // Attaches credit-based flow control to every router->router port at
  // build() time (host uplinks stay ungoverned so i(p) is always
  // well-defined). Fully deterministic: no RNG, so stall patterns are
  // identical across dispatch backends.
  void set_flow(const flow_spec& f);
  // Materializes ports. Must be called exactly once before any traffic.
  void build();

  // --- traffic entry points ---
  // Sends from the source host NIC (normal operation: host link pacing
  // included, path stamped from static routing if absent).
  void send_from_host(packet_ptr p);
  // Replay injection: delivers p at its ingress router, p->path.front(),
  // now, inline, bypassing the host link exactly as the paper's replay
  // model does. core::replay_trace calls it once the kernel has run every
  // event before i(p) (sim::simulator::run_before), so an injected packet
  // reaches its ingress queue before every forwarded arrival at the same
  // instant. Precondition: p carries its path.
  void inject_at_ingress(packet_ptr p);

  // --- forwarding internals (used by port) ---
  void transmitted(packet_ptr p, const port& from_port, sim::time_ps now);
  void count_drop(const packet& p, node_id at, sim::time_ps now,
                  drop_kind kind);
  // A governed port's head packet parked for lack of credits: count it and
  // arm the stall watchdog.
  void flow_port_blocked(const port& blocked);
  // The matching unblock, with how long the head sat parked.
  void flow_resumed(sim::time_ps stalled);
  // Returns every credit a packet still holds (called on any drop path so
  // fault+flow combinations cannot leak occupancy and wedge the link).
  void flow_release_all(packet& p);

  // --- lookup ---
  [[nodiscard]] std::size_t node_count() const noexcept {
    return nodes_.size();
  }
  [[nodiscard]] bool is_router(node_id id) const {
    return nodes_[id].kind == node_kind::router;
  }
  // Directed port from -> to; throws if absent.
  [[nodiscard]] port& port_between(node_id from, node_id to);
  [[nodiscard]] const std::vector<std::unique_ptr<port>>& ports() const {
    return ports_;
  }
  // Router attached to a host.
  [[nodiscard]] node_id attachment(node_id host) const;

  // Writes into `out`, overwriting it, the router-level shortest path
  // between the routers serving two hosts (weight = propagation delay + 1ps
  // per hop; deterministic tie-breaks, see routing.h). Each source router's
  // shortest-path tree is built on its first lookup; a lookup then walks
  // the tree twice, once to count the routers and once to fill `out` back
  // to front, so `out` is sized once and, reused, allocates nothing. Replay
  // never calls this: its packets carry their recorded paths, so a replay
  // network builds no tree. Throws std::runtime_error when no route exists.
  void route(node_id src_host, node_id dst_host, std::vector<node_id>& out);

  // Calls visit(port_id) once for each port a packet from src_host to
  // dst_host crosses, the ports port_between gives along route(src_host,
  // dst_host): the source host's uplink, the leaf hop when the source's
  // router is a leaf, the tree hops from the destination's router back
  // toward the source's, then the egress router's port to dst_host. It
  // builds no path, scans no out-port list and reads no port object: the
  // trees hold port ids, and a host's egress port is the reverse of its
  // uplink. Throws as route() does, before the first visit.
  template <typename Visit>
  void for_each_route_port(node_id src_host, node_id dst_host, Visit&& visit);

  // Minimum remaining network traversal time for p from path[from_hop] to
  // egress: per-hop transmission plus inter-router propagation (Appendix A's
  // tmin; excludes the egress link's propagation, matching o(p)).
  [[nodiscard]] sim::time_ps tmin(const packet& p, std::size_t from_hop) const;

  // Arena every traffic source and transport should draw packets from; in
  // steady state packet create/destroy is a freelist pop/push.
  [[nodiscard]] packet_pool& pool() noexcept { return pool_; }

  network_hooks& hooks() noexcept { return hooks_; }
  [[nodiscard]] const network_stats& stats() const noexcept { return stats_; }
  [[nodiscard]] sim::simulator& sim() noexcept { return sim_; }

  // Registers a per-host packet consumer (transport endpoints). Without a
  // handler delivered packets are counted and destroyed.
  void set_host_handler(node_id host, std::function<void(packet_ptr)> h);

  // While on, every router port appends each packet's last-bit departure
  // to packet::hop_departs. Only a trace_recorder switches it, from its
  // with_hop_times.
  [[nodiscard]] bool records_hops() const noexcept { return record_hops_; }

 private:
  friend class trace_recorder;
  void set_record_hops(bool on) noexcept { record_hops_ = on; }

  struct link_spec {
    node_id a;
    node_id b;
    sim::bits_per_sec rate;
    sim::time_ps delay;
  };

  void deliver(packet_ptr p, node_id at);
  struct stall_hold;
  // Holds p for a forced stall: delivers it at `to` at time `at`.
  void post(packet_ptr p, node_id to, sim::time_ps at);
  // The hold ends: frees h, then delivers its packet.
  void release(stall_hold& h);
  // Puts p on the wire of port `port_id`, landing at `to` at time `at`.
  void launch(packet_ptr p, std::int32_t port_id, node_id to,
              sim::time_ps at);
  struct wire;
  // Files w's landing for its head packet, under the sequence number
  // reserved at that packet's launch.
  void arm(wire& w);
  // The head of w lands: pops it, arms the next head, then delivers it.
  void land(wire& w);
  [[nodiscard]] const port* find_port(node_id from, node_id to) const;
  // The id of a host's one out-port; throws std::logic_error unless it has
  // exactly one.
  [[nodiscard]] std::int32_t uplink(node_id host) const;
  // A host pair's route as route() and for_each_route_port walk it: the
  // uplink into r0, the leaf hop r0 -> s when r0 is a leaf (else -1), the
  // hops of s's tree from r1 back to s (tree[v] is the port reaching v;
  // null when r0 == r1, which has none), and the egress port out of r1.
  struct route_walk {
    std::int32_t uplink;
    std::int32_t leaf;
    std::int32_t egress;
    node_id r0;
    node_id s;
    node_id r1;
    const std::int32_t* tree;
  };
  // Builds s's tree on its first lookup; throws when no route exists.
  [[nodiscard]] route_walk walk(node_id src_host, node_id dst_host);
  // Queues the delayed credit-return for one (port, bytes) release.
  void flow_schedule_release(std::int32_t port_id, std::int64_t bytes);
  struct credit_queue;
  // Files q's event for its head return, under the sequence number
  // reserved when that return was decided.
  void arm(credit_queue& q);
  // The head return of q lands: pops it, arms the next, then returns its
  // bytes to the port's ledger.
  void return_credit(credit_queue& q);
  void flow_watchdog_arm();
  void flow_watchdog_check();

  sim::simulator& sim_;
  // Declared before every member that can hold packets (ports_, in_flight_,
  // holds_) so it is destroyed last: pooled packets return here on
  // destruction.
  packet_pool pool_;
  std::vector<node> nodes_;
  std::vector<link_spec> links_;
  std::vector<std::unique_ptr<port>> ports_;
  // per-node outgoing ports: (to, index into ports_)
  std::vector<std::vector<std::pair<node_id, std::int32_t>>> out_ports_;
  // (from(), to()) of ports_[i], by port id, in one flat array: a route
  // walk reads an endpoint per hop, and the ports are scattered on the heap.
  std::vector<std::pair<node_id, node_id>> port_ends_;
  scheduler_factory factory_;
  std::int64_t buffer_bytes_ = 0;
  bool preemption_ = false;
  bool record_hops_ = false;
  bool built_ = false;
  // Some port ranks by packet::remaining_tmin: stamp it at ingress.
  bool stamp_tmin_ = false;
  fault_spec fault_;
  std::uint64_t fault_seed_ = 0;
  std::vector<link_fault> link_faults_;  // indexed by port id; built_ only

  // Flow control: occupancy ledgers and credit-return queues indexed by
  // port id (router->router only), plus the stall watchdog (flow_watchdog_,
  // below). The watchdog arms lazily on the first blocked port, checks
  // every watchdog_interval_ (a few credit RTTs), and classifies: progress
  // since last check = transient backpressure; a full stuck window without
  // progress = persistent stall; a wait-for cycle among blocked routers
  // with no credit return in flight = deadlock (typed throw).
  // flow_progress_ advances on resumes, credit returns, deliveries, and
  // drops.
  flow_spec flow_;
  std::vector<link_flow> link_flows_;        // indexed by port id
  std::vector<std::int32_t> governed_ports_;
  sim::time_ps flow_watchdog_interval_ = 0;
  // Allocated once at build() when flow control is on, and never moved,
  // since the kernel holds pointers to its events.
  std::unique_ptr<credit_queue[]> credit_queues_;
  std::uint64_t flow_progress_ = 0;
  std::uint64_t flow_watchdog_seen_ = 0;  // progress at last check
  std::uint32_t flow_watchdog_stuck_ = 0;
  std::int64_t flow_returns_in_flight_ = 0;

  // Routing state set at build(). routing_graph_ is router-only (host links
  // excluded), so paths are router sequences. A leaf router is one whose
  // router->router out-edges all go to a single neighbour c; leaf_port_
  // holds its port to c, the one port_between(leaf, c) gives (-1 for
  // non-leaves and hosts). A leaf's routes are c's with the leaf prepended,
  // and its route to itself is [leaf], so a lookup from a leaf walks c's
  // tree, not one of its own. That is exact under shortest_path_tree's
  // tie-break (the smallest tight predecessor): every distance from the
  // leaf is the leaf->c edge weight plus the distance from c, so each other
  // router keeps the same tight predecessors, and the leaf itself can only
  // be the tight predecessor of c. A neighbour that is itself a leaf still
  // gets its own tree, so two routers that are each other's only neighbour
  // cannot recurse. On RocketFuel, 83 trees of 1,743 entries (about 0.6 MB)
  // serve all 913 routers.
  routing_graph routing_graph_;
  std::vector<std::int32_t> leaf_port_;  // by node id
  // Shortest-path tree of each source router, by node id; empty until its
  // first lookup. Entry v is the id of the port that reaches v, the port
  // port_between(prev, v) gives for v's predecessor prev, so prev is that
  // port's from(); -1 for the source and for unreachable nodes.
  std::vector<std::vector<std::int32_t>> trees_;
  dijkstra_scratch dijkstra_scratch_;  // shared by every tree build
  std::vector<std::function<void(packet_ptr)>> host_handlers_;

  // Packets on a wire between ports. Entries are recycled through
  // free_slots_ (LIFO).
  //
  // A wire is a FIFO with one kernel event, the landing of its head, which
  // the wire embeds: it is the event (see sim::event). A port's propagation
  // delay is fixed and its transmissions complete in order — preempted ones
  // and cut-through at infinite-rate ports included — so the packets one
  // port launches land in launch order. Each launch reserves the sequence
  // number a schedule_at at that moment would take, and the wire is filed
  // under the head's number (sim::simulator::schedule_reserved): at launch
  // onto an empty wire, or when its predecessor lands, whose key is
  // strictly smaller. So every landing dispatches under the (time, seq) key
  // of an event scheduled at launch, while the kernel holds one entry per
  // busy wire instead of one per packet on it. (Credit returns below and
  // traffic sources' flow starts chain the same way; see
  // traffic::start_chain.) Injections deliver inline and take no event.
  //
  // The FIFO threads through the arena: `next` links a wire's entries and
  // each wire holds its port's {head, tail}. Packets in flight are owned by
  // the network (here, and in holds_ below), so tearing down after a mid-run
  // throw is safe. No reference into in_flight_ may be held across
  // deliver(): it can grow it.
  static constexpr std::uint32_t kNilEntry = 0xffffffffu;
  struct in_flight_entry {
    packet_ptr p;
    sim::time_ps at = 0;     // landing time
    std::uint64_t seq = 0;   // sequence number reserved at launch
    std::uint32_t next = kNilEntry;  // next entry on the same wire
    node_id to = kInvalidNode;       // node the packet lands at
  };
  // A wire is its own landing event (see sim::event), filed while the
  // wire holds a packet.
  struct wire final : sim::event {
    void fire() override { net->land(*this); }
    network* net = nullptr;
    std::uint32_t head = kNilEntry;
    std::uint32_t tail = kNilEntry;
  };
  std::vector<in_flight_entry> in_flight_;
  std::vector<std::uint32_t> free_slots_;
  // Indexed by port id; allocated once at build() and never moved, since
  // the kernel holds pointers to its events.
  std::unique_ptr<wire[]> wires_;

  network_hooks hooks_;
  network_stats stats_;

  // Credit returns, one FIFO per governed port. A port's return delay is
  // fixed, so its returns land in the order they were decided: each port's
  // queue is one kernel event for its head, filed under the sequence number
  // reserved when that return was decided, exactly as a wire files its
  // landing. Entries are recycled through free_returns_ (LIFO).
  struct credit_return {
    sim::time_ps at = 0;    // landing time
    std::uint64_t seq = 0;  // sequence number reserved when decided
    std::int64_t bytes = 0;
    std::uint32_t next = kNilEntry;  // next return to the same port
  };
  struct credit_queue final : sim::event {
    void fire() override { net->return_credit(*this); }
    network* net = nullptr;
    std::int32_t port = -1;
    std::uint32_t head = kNilEntry;
    std::uint32_t tail = kNilEntry;
  };
  std::vector<credit_return> returns_;
  std::vector<std::uint32_t> free_returns_;

  // Forced-stall holds: not FIFO, since each packet's recorded stall
  // differs, so every held packet has its own event. A deque never moves
  // its elements, so the kernel may point at them; released holds are
  // reused through free_holds_ (LIFO).
  struct stall_hold final : sim::event {
    void fire() override { net->release(*this); }
    network* net = nullptr;
    packet_ptr p;
    node_id to = kInvalidNode;  // node the packet is delivered at
  };
  std::deque<stall_hold> holds_;
  std::vector<stall_hold*> free_holds_;

  sim::member_event<network, &network::flow_watchdog_check> flow_watchdog_{
      *this};
};

template <typename Visit>
void network::for_each_route_port(node_id src_host, node_id dst_host,
                                  Visit&& visit) {
  const route_walk w = walk(src_host, dst_host);
  visit(w.uplink);
  if (w.leaf >= 0) visit(w.leaf);
  for (node_id v = w.r1; v != w.s;) {
    const std::int32_t id = w.tree[v];
    visit(id);
    v = port_ends_[static_cast<std::size_t>(id)].first;
  }
  visit(w.egress);
}

}  // namespace ups::net
