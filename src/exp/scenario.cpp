#include "exp/scenario.h"

#include <cstdio>
#include <stdexcept>

#include "topo/fattree.h"
#include "topo/internet2.h"
#include "topo/rocketfuel.h"

namespace ups::exp {

const char* to_string(topo_kind k) {
  switch (k) {
    case topo_kind::i2_default: return "I2 1Gbps-10Gbps";
    case topo_kind::i2_1g_1g: return "I2 1Gbps-1Gbps";
    case topo_kind::i2_10g_10g: return "I2 10Gbps-10Gbps";
    case topo_kind::rocketfuel: return "RocketFuel";
    case topo_kind::fattree: return "Datacenter";
  }
  return "?";
}

topo::topology make_topology(topo_kind k) {
  switch (k) {
    case topo_kind::i2_default: return topo::internet2_1g_10g();
    case topo_kind::i2_1g_1g: return topo::internet2_1g_1g();
    case topo_kind::i2_10g_10g: return topo::internet2_10g_10g();
    case topo_kind::rocketfuel: return topo::rocketfuel();
    case topo_kind::fattree: return topo::fattree();
  }
  throw std::logic_error("unhandled topology kind");
}

sim::time_ps apply_jam_speedup(topo::topology& t,
                               const net::fault_spec& fault) {
  if (fault.kind == net::fault_kind::jam && fault.jam_speedup > 1.0) {
    for (auto& l : t.core_links) {
      l.rate = static_cast<sim::bits_per_sec>(static_cast<double>(l.rate) *
                                              fault.jam_speedup);
    }
  }
  return sim::transmission_time(traffic::kMtuBytes, t.bottleneck_rate());
}

std::string scenario::label() const {
  std::string s = std::string(to_string(topo)) + " @" +
                  std::to_string(static_cast<int>(utilization * 100)) + "% " +
                  core::to_string(sched);
  // The flow-size distribution: always the heavy-tailed one.
  s += " heavy";
  // Workload kind plus the tuning knobs that shape its schedule.
  s += " ";
  s += traffic::to_string(workload_kind);
  char knob[48];
  switch (workload_kind) {
    case traffic::source_kind::open_loop:
      break;
    case traffic::source_kind::paced:
      std::snprintf(knob, sizeof(knob), ":%g", workload_spec.pacing_fraction);
      s += knob;
      break;
    case traffic::source_kind::closed_loop:
      std::snprintf(knob, sizeof(knob), "%s:%u",
                    workload_spec.via_tcp ? "-tcp" : "",
                    workload_spec.outstanding);
      s += knob;
      break;
    case traffic::source_kind::incast:
      std::snprintf(knob, sizeof(knob), ":%uj%gus",
                    workload_spec.incast_degree,
                    sim::to_micros(workload_spec.barrier_jitter));
      s += knob;
      break;
    case traffic::source_kind::mixed:
      std::snprintf(knob, sizeof(knob), ":%u:%u:%g",
                    workload_spec.incast_degree, workload_spec.outstanding,
                    workload_spec.incast_share);
      s += knob;
      break;
  }
  // Fault tag only when a fault process is active: zero-loss labels must
  // stay byte-identical to output from before faults existed.
  if (fault.enabled()) {
    s += " ";
    s += fault.label();
  }
  // Same rule for flow control: ungoverned labels stay byte-identical to
  // output from before backpressure existed.
  if (flow.enabled()) {
    s += " ";
    s += flow.label();
  }
  return s;
}

void apply_overrides(const flags& f, scenario& sc) {
  sc.seed = f.number("seed", sc.seed);
  sc.utilization = f.number("utilization", sc.utilization);
  if (f.has("workload")) {
    sc.workload_kind =
        traffic::parse_workload(f.text("workload", ""), sc.workload_spec);
  }
  if (f.has("fault")) sc.fault = net::fault_spec::parse(f.text("fault", ""));
  if (f.has("flow")) sc.flow = net::flow_spec::parse(f.text("flow", ""));
}

}  // namespace ups::exp
