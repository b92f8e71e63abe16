// Experiment scenarios: the (topology, utilization, scheduler, workload,
// seed) combinations that make up the paper's Table 1 and figures.
#pragma once

#include <cstdint>
#include <string>

#include "core/registry.h"
#include "exp/args.h"
#include "net/fault.h"
#include "net/flow_control.h"
#include "topo/topology.h"
#include "traffic/source.h"

namespace ups::exp {

enum class topo_kind : std::uint8_t {
  i2_default,  // I2 1Gbps-10Gbps
  i2_1g_1g,
  i2_10g_10g,
  rocketfuel,
  fattree,
};

[[nodiscard]] const char* to_string(topo_kind k);
[[nodiscard]] topo::topology make_topology(topo_kind k);

// Readies t for a recording run under `fault` and for that run's replays:
// a jam fault with speedup > 1 runs every core link that much faster, to
// make up for the jammed duty cycle. Scaling the topology, not a built
// network, keeps original and replay on identical rates. Returns the
// overdue threshold T of runs over the result: one full-size packet
// (traffic::kMtuBytes) at its bottleneck rate, so T follows the speedup
// wherever a core link is the bottleneck.
[[nodiscard]] sim::time_ps apply_jam_speedup(topo::topology& t,
                                             const net::fault_spec& fault);

struct scenario {
  topo_kind topo = topo_kind::i2_default;
  double utilization = 0.7;
  core::sched_kind sched = core::sched_kind::random;
  std::uint64_t seed = 1;
  std::uint64_t packet_budget = 200'000;
  bool record_hops = false;  // omniscient replay needs per-hop times
  // Traffic-source selection: how the calibrated workload enters the
  // network (open-loop bursts, per-flow pacing, bounded-outstanding
  // request-response, or synchronized incast fan-in) plus its knobs.
  traffic::source_kind workload_kind = traffic::source_kind::open_loop;
  traffic::source_tuning workload_spec;
  // Per-link fault process applied to the original run's router-router
  // links (net::fault_spec::parse syntax); disabled by default so
  // zero-loss scenario labels stay byte-identical to pre-fault output.
  net::fault_spec fault;
  // Per-link flow control for the original run (net::flow_spec::parse
  // syntax); disabled by default so ungoverned scenario labels stay
  // byte-identical to pre-flow-control output.
  net::flow_spec flow;

  // Unique across every knob that changes the generated schedule: topology,
  // utilization, scheduler, and the workload kind with its active tuning
  // parameters — so result files from different workloads can never
  // collide. Every scenario draws the paper's heavy-tailed flow sizes, and
  // the label says so (" heavy").
  [[nodiscard]] std::string label() const;
};

// Applies each of --seed, --utilization, --workload (kind plus any ":knob"
// suffix), --fault (net::fault_spec::parse syntax) and --flow
// (net::flow_spec::parse syntax) that was given onto a scenario. The
// budget flags go through flags::budget().
void apply_overrides(const flags& f, scenario& sc);

}  // namespace ups::exp
