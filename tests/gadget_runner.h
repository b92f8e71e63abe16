// Shared test helper: executes a theory gadget's prescribed schedule with
// the omniscient executor and returns the recorded trace.
#pragma once

#include <map>
#include <memory>
#include <string>

#include "core/registry.h"
#include "core/replay.h"
#include "deferred_calls.h"
#include "net/network.h"
#include "net/trace.h"
#include "sim/simulator.h"
#include "topo/gadgets.h"

namespace ups::testing {

struct gadget_run {
  topo::topology topology;
  net::trace trace;
  std::map<std::string, std::uint64_t> id_of;  // packet name -> id
  std::map<std::uint64_t, sim::time_ps> expected_out;
};

inline gadget_run run_gadget_original(const topo::gadget& g) {
  gadget_run out;
  out.topology = g.topo;

  sim::simulator sim;
  net::network net(sim);
  topo::populate(g.topo, net);
  net.set_buffer_bytes(0);
  net.set_scheduler_factory(
      core::make_factory(core::sched_kind::omniscient, 1));
  net.build();
  net::trace_recorder recorder(net, /*with_hop_times=*/true);
  deferred_calls calls(sim);

  std::uint64_t next_id = 1;
  for (const auto& gp : g.packets) {
    net::packet_ptr p = net::make_packet();
    p->id = next_id++;
    p->flow_id = p->id;
    p->size_bytes = gp.size_bytes;
    p->src_host = g.topo.host_id(gp.src_host);
    p->dst_host = g.topo.host_id(gp.dst_host);
    for (const auto r : gp.path) p->path.push_back(r);
    p->hop_deadlines = gp.hop_starts;  // prescribed per-hop service order
    out.id_of[gp.name] = p->id;
    out.expected_out[p->id] = gp.expected_out;
    net::packet* raw = p.release();
    calls.at(gp.inject_at,
             [&net, raw] { net.send_from_host(net::packet_ptr(raw)); });
  }
  sim.run();
  out.trace = recorder.take();
  return out;
}

inline core::replay_result replay_gadget(const gadget_run& run,
                                         core::replay_mode mode) {
  core::replay_options opt;
  opt.mode = mode;
  opt.threshold_T = 0;
  opt.keep_outcomes = true;
  const auto& topology = run.topology;
  return core::replay_trace(
      run.trace, [&topology](net::network& n) { topo::populate(topology, n); },
      opt);
}

}  // namespace ups::testing
