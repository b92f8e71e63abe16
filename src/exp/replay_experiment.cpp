#include "exp/replay_experiment.h"

#include <memory>

#include "net/network.h"
#include "net/trace_io.h"
#include "sim/simulator.h"
#include "traffic/size_dist.h"
#include "traffic/source.h"
#include "traffic/workload.h"

namespace ups::exp {

original_run run_original(const scenario& sc) {
  original_run out;
  out.topology = make_topology(sc.topo);
  out.threshold_T = apply_jam_speedup(out.topology, sc.fault);

  sim::simulator sim;
  net::network net(sim);
  topo::populate(out.topology, net);
  net.set_buffer_bytes(0);  // paper: buffers large enough for no drops
  net.set_scheduler_factory(core::make_factory(sc.sched, sc.seed, &net));
  net.set_fault(sc.fault, sc.seed);
  net.set_flow(sc.flow);
  net.build();

  net::trace_recorder recorder(net, sc.record_hops);

  const auto dist = traffic::default_heavy_tailed();
  traffic::workload_config wcfg;
  wcfg.utilization = sc.utilization;
  wcfg.seed = sc.seed;
  wcfg.packet_budget = sc.packet_budget;
  auto made = traffic::make_source(net, out.topology, *dist, wcfg,
                                   sc.workload_kind, sc.workload_spec);
  out.per_host_rate_bps = made.per_host_rate_bps;

  sim.run();
  out.peak_pool_packets = net.pool().created();
  out.peak_event_slots = sim.peak_entries();
  out.flows_completed = made.src->flows_completed();
  out.peak_outstanding_flows = made.src->peak_outstanding();
  out.trace = recorder.take();
  return out;
}

core::replay_result run_replay(const original_run& orig,
                               core::replay_mode mode, bool keep_outcomes,
                               const net::flow_spec& flow) {
  core::replay_options opt;
  opt.mode = mode;
  opt.threshold_T = orig.threshold_T;
  opt.keep_outcomes = keep_outcomes;
  opt.flow = flow;
  const auto& topology = orig.topology;
  return core::replay_trace(
      orig.trace,
      [&topology](net::network& n) { topo::populate(topology, n); }, opt);
}

core::replay_result run_replay_file(const std::string& trace_path,
                                    const topo::topology& topology,
                                    sim::time_ps threshold_T,
                                    core::replay_mode mode,
                                    bool keep_outcomes,
                                    const net::flow_spec& flow) {
  core::replay_options opt;
  opt.mode = mode;
  opt.threshold_T = threshold_T;
  opt.keep_outcomes = keep_outcomes;
  opt.flow = flow;
  const auto cur = net::open_trace_cursor(trace_path);
  return core::replay_trace(
      *cur, [&topology](net::network& n) { topo::populate(topology, n); },
      opt);
}

core::replay_result table1_row(const scenario& sc) {
  const auto orig = run_original(sc);
  return run_replay(orig, core::replay_mode::lstf, false);
}

}  // namespace ups::exp
