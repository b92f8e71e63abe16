#include "core/replay.h"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>

#include "core/registry.h"
#include "sim/simulator.h"

namespace ups::core {

const char* to_string(replay_mode m) {
  switch (m) {
    case replay_mode::lstf: return "LSTF";
    case replay_mode::lstf_preemptive: return "LSTF(preempt)";
    case replay_mode::lstf_pheap: return "LSTF(p-heap)";
    case replay_mode::edf: return "EDF";
    case replay_mode::priority_output_time: return "Priority(o(p))";
    case replay_mode::omniscient: return "Omniscient";
  }
  return "?";
}

namespace {

sched_kind scheduler_for(replay_mode m) {
  switch (m) {
    case replay_mode::lstf: return sched_kind::lstf;
    case replay_mode::lstf_preemptive: return sched_kind::lstf_preemptive;
    case replay_mode::lstf_pheap: return sched_kind::lstf_pheap;
    case replay_mode::edf: return sched_kind::edf;
    case replay_mode::priority_output_time: return sched_kind::static_priority;
    case replay_mode::omniscient: return sched_kind::omniscient;
  }
  throw std::logic_error("unhandled replay mode");
}

// Builds a replay packet from a recorded schedule entry: identity + path
// from the record, scheduling header initialized per mode from nothing but
// (i(p), o(p), path(p)) — black-box initialization — or the per-hop vector
// of Appendix B in omniscient mode.
net::packet_ptr packet_from_record(net::network& net,
                                   const net::packet_record& r,
                                   const replay_options& opt) {
  // The recorded path is trusted by everything below (tmin, port lookups,
  // forwarding), and an empty one would be silently re-routed at injection,
  // so it must name at least one hop and only routers of this network.
  if (r.path.empty()) {
    throw std::invalid_argument("replay: record " + std::to_string(r.id) +
                                " has an empty path");
  }
  for (const net::node_id n : r.path) {
    if (n < 0 || static_cast<std::size_t>(n) >= net.node_count() ||
        !net.is_router(n)) {
      throw std::invalid_argument(
          "replay: record " + std::to_string(r.id) + " path names node " +
          std::to_string(n) + ", which is not a router of the topology");
    }
  }
  net::packet_ptr p = net.pool().make();
  p->id = r.id;
  p->flow_id = r.flow_id;
  p->seq_in_flow = r.seq_in_flow;
  p->size_bytes = r.size_bytes;
  p->src_host = r.src_host;
  p->dst_host = r.dst_host;
  p->path = r.path;
  p->flow_size_bytes = r.flow_size_bytes;
  p->ref_egress_time = r.egress_time;
  p->ref_queueing_delay = r.queueing_delay;
  // Replay-under-loss: a recorded drop is re-enacted at the same hop (the
  // network force-drops it there; no fault process runs during replay).
  // The record has no o(p), so header initialization uses the effective
  // output time the packet was tracking when it died: the earliest egress
  // it could still have reached from the drop point.
  sim::time_ps ref_out = r.egress_time;
  if (r.dropped()) {
    if (r.drop_hop < 0 ||
        static_cast<std::size_t>(r.drop_hop) >= r.path.size()) {
      throw std::invalid_argument("replay: drop record hop out of range");
    }
    p->forced_drop_hop = r.drop_hop;
    p->forced_drop_kind = r.dropped_kind;
    const auto j = static_cast<std::size_t>(r.drop_hop);
    if (r.dropped_kind == net::drop_kind::wire && j + 1 < r.path.size()) {
      // Lost after its last bit left path[j]: it would next contend at
      // path[j+1] one propagation delay later.
      const auto& pt = net.port_between(r.path[j], r.path[j + 1]);
      ref_out = r.drop_time + pt.prop_delay() + net.tmin(*p, j + 1);
    } else {
      // Died at path[j]'s output queue before transmitting.
      ref_out = r.drop_time + net.tmin(*p, j);
    }
  }
  // Replay-under-backpressure: a recorded stall is re-enacted as a hold at
  // the router where the packet's longest pause happened — the network
  // re-posts the arrival stall_time later. No flow control runs during
  // replay; the recorded delay stands in for the credit wait.
  if (r.stalled()) {
    if (r.stall_hop < 0 ||
        static_cast<std::size_t>(r.stall_hop) >= r.path.size()) {
      throw std::invalid_argument("replay: stall record hop out of range");
    }
    p->forced_stall_hop = r.stall_hop;
    p->forced_stall_time = r.stall_time;
  }
  switch (opt.mode) {
    case replay_mode::lstf:
    case replay_mode::lstf_preemptive:
    case replay_mode::lstf_pheap: {
      const sim::time_ps tmin = net.tmin(*p, 0);
      p->slack = ref_out - r.ingress_time - tmin;
      break;
    }
    case replay_mode::edf:
      p->deadline = ref_out;
      break;
    case replay_mode::priority_output_time:
      p->priority = ref_out;
      break;
    case replay_mode::omniscient: {
      // A dropped packet only transmitted at the hops its recorded departs
      // cover (wire drop at j: hops 0..j; buffer drop at j: hops 0..j-1);
      // replay force-drops it before any later hop consults a deadline, so
      // the tail entries just need to exist.
      if (!r.dropped() && r.hop_departs.size() != r.path.size()) {
        throw std::invalid_argument(
            "omniscient replay requires a trace recorded with hop times");
      }
      // Appendix B ranks by o(p, α), the time the *first* bit was
      // scheduled; the trace records last-bit exits, so subtract the
      // per-hop transmission time.
      p->hop_deadlines.resize(r.path.size());
      for (std::size_t j = 0; j < r.path.size(); ++j) {
        sim::time_ps start;
        if (j < r.hop_departs.size()) {
          const net::node_id here = r.path[j];
          const net::node_id next =
              (j + 1 < r.path.size()) ? r.path[j + 1] : r.dst_host;
          const auto& pt = net.port_between(here, next);
          start = r.hop_departs[j] - pt.transmission_time(r.size_bytes);
        } else {
          start = r.drop_time;  // never consulted: forced drop comes first
        }
        if (opt.omniscient_quantum > 0) {
          start -= start % opt.omniscient_quantum;
        }
        p->hop_deadlines[j] = start;
      }
      break;
    }
  }
  return p;
}

// Feeds the cursor into the network one ingress instant at a time: a single
// standing event sits at the next record's i(p); when it fires it injects
// every record due at that instant, pulling one record per next(), and
// re-arms itself at the first record past it. Only in-flight packets plus
// the one pulled record are ever resident, which is the whole point of
// streaming injection.
struct streaming_feeder {
  net::trace_cursor& cur;
  net::network& net;
  const replay_options& opt;
  const net::packet_record* rec = nullptr;  // pulled, not yet injected
  std::uint64_t injected = 0;

  void arm() {
    rec = cur.next();
    if (rec == nullptr) return;
    // Early phase: the feeder (and the injections it posts, also early)
    // runs before every forwarded arrival at the same instant, so a packet
    // injected at i(p) reaches its ingress queue ahead of a same-instant
    // in-network arrival and wins a rank tie by arriving first.
    net.sim().schedule_early(rec->ingress_time, [this] { fire(); });
  }

  void fire() {
    const sim::time_ps now = net.sim().now();
    do {
      net.inject_at_ingress(packet_from_record(net, *rec, opt), now);
      ++injected;
      rec = cur.next();
    } while (rec != nullptr && rec->ingress_time == now);
    if (rec == nullptr) return;
    if (rec->ingress_time < now) {
      throw std::invalid_argument(
          "replay cursor violated ingress-time order (sort the trace or use "
          "trace::ingress_cursor)");
    }
    net.sim().schedule_early(rec->ingress_time, [this] { fire(); });
  }
};

}  // namespace

replay_result replay_trace(net::trace_cursor& cur,
                           const topology_builder& topo,
                           const replay_options& opt) {
  sim::simulator sim;
  net::network net(sim);
  topo(net);
  // Replay uses unbounded buffers and attaches no fault process: the only
  // drops are the forced replays of losses recorded in the original run.
  // Flow control is off unless the caller opts into live backpressure.
  net.set_buffer_bytes(0);
  net.set_flow(opt.flow);
  net.set_preemption(opt.mode == replay_mode::lstf_preemptive);
  net.set_scheduler_factory(
      make_factory(scheduler_for(opt.mode), opt.seed, &net));
  net.build();

  // Overdue counters settle at egress against the reference times carried
  // by each packet, so the engine never needs the full trace in memory —
  // O(1) accounting state for Table-1-style runs, O(trace) only when the
  // caller asked to keep per-packet outcomes. Those grow as packets egress:
  // a count read from a file header never sizes them.
  replay_result res;
  res.threshold_T = opt.threshold_T;
  net.hooks().on_egress = [&res, &opt](const net::packet& p,
                                       sim::time_ps now) {
    ++res.total;
    if (now > p.ref_egress_time) ++res.overdue;
    if (now > p.ref_egress_time + opt.threshold_T) ++res.overdue_beyond_T;
    if (opt.keep_outcomes) {
      res.outcomes.push_back(replay_outcome{p.id, p.ref_egress_time, now,
                                            p.ref_queueing_delay,
                                            p.queueing_delay});
    }
  };
  net.hooks().on_drop = [&res](const net::packet&, net::node_id, sim::time_ps,
                               net::drop_kind) { ++res.dropped; };

  streaming_feeder feeder{cur, net, opt};
  feeder.arm();
  sim.run();

  if (res.total + res.dropped != feeder.injected) {
    throw std::runtime_error("replay lost packets (buffering bug?)");
  }
  // Egress order is deterministic but mode-dependent; id order is the
  // stable contract consumers (EDF≡LSTF equivalence, Figure 1) key on.
  std::sort(res.outcomes.begin(), res.outcomes.end(),
            [](const replay_outcome& a, const replay_outcome& b) {
              return a.id < b.id;
            });
  res.peak_pool_packets = net.pool().created();
  res.peak_event_slots = sim.slot_capacity();
  return res;
}

replay_result replay_trace(const net::trace& tr, const topology_builder& topo,
                           const replay_options& opt) {
  net::trace_ingress_cursor cur(tr);
  return replay_trace(cur, topo, opt);
}

}  // namespace ups::core
