// Ablation (§3 design choice): LSTF's buffer policy.
//
// §3 states "packets with the highest slack are dropped when the buffer is
// full". This bench isolates that choice: the same TCP/FCT workload runs
// over LSTF with (a) drop-highest-slack and (b) plain drop-tail, at several
// buffer sizes, comparing mean FCT and drop counts.
//
// Usage: bench_ablation_drop_policy [--packets=N] [--seed=N] [--scale=F]
//                                   [--quick]
#include <cstdio>
#include <iostream>

#include "core/heuristics.h"
#include "core/lstf.h"
#include "exp/args.h"
#include "exp/scenario.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "stats/table.h"
#include "traffic/size_dist.h"
#include "traffic/workload.h"
#include "transport/tcp.h"

namespace {

using namespace ups;

struct run_result {
  double mean_fct_s = 0.0;
  std::uint64_t drops = 0;
  std::uint64_t flows = 0;
};

run_result run(bool drop_highest_slack, std::int64_t buffer_bytes,
               std::uint64_t packets, std::uint64_t seed) {
  const auto topology = exp::make_topology(exp::topo_kind::i2_default);
  sim::simulator sim;
  net::network net(sim);
  topo::populate(topology, net);
  net.set_buffer_bytes(buffer_bytes);
  net.set_scheduler_factory([drop_highest_slack](const net::port_info& info) {
    return std::make_unique<core::lstf>(info.rate, /*preemptive=*/false,
                                        drop_highest_slack);
  });
  net.build();

  const auto dist = traffic::default_heavy_tailed();
  traffic::workload_config wcfg;
  wcfg.utilization = 0.7;
  wcfg.seed = seed;
  wcfg.packet_budget = packets;
  const auto wl = traffic::generate(net, topology, *dist, wcfg);

  transport::tcp_manager tcp(net, {});
  core::fct_slack slack_policy;
  for (const auto& f : wl.flows) {
    const sim::time_ps s = slack_policy.slack_for(f.size_bytes);
    tcp.start_flow(f.id, f.src, f.dst, f.size_bytes, f.start,
                   [s](net::packet& p) { p.slack = s; });
  }
  sim.run();

  run_result out;
  double total = 0;
  for (const auto& c : tcp.completions()) {
    total += sim::to_seconds(c.fct());
    ++out.flows;
  }
  out.mean_fct_s = out.flows ? total / static_cast<double>(out.flows) : 0.0;
  out.drops = net.stats().dropped;
  return out;
}

int run_with(const ups::exp::flags& f) {
  const std::uint64_t packets = f.budget(40'000);
  const auto seed = f.number<std::uint64_t>("seed", 1);

  std::printf("LSTF drop-policy ablation (TCP FCT workload, I2 @70%%, "
              "%llu packets)\n\n",
              static_cast<unsigned long long>(packets));
  ups::stats::table t({"buffer", "policy", "mean FCT (s)", "drops",
                       "flows"});
  for (const std::int64_t buf :
       {30'000LL, 60'000LL, 120'000LL, 500'000LL}) {
    for (const bool highest : {false, true}) {
      const auto r = run(highest, buf, packets, seed);
      t.add_row({std::to_string(buf / 1000) + " KB",
                 highest ? "drop-highest-slack" : "drop-tail",
                 ups::stats::table::fmt(r.mean_fct_s, 4),
                 std::to_string(r.drops), std::to_string(r.flows)});
      std::printf(".");
      std::fflush(stdout);
    }
  }
  std::printf("\n\n");
  t.print(std::cout);
  std::printf("\nDropping the highest-slack packet sheds load from the\n"
              "flows that can best afford it (large flows under the FCT\n"
              "slack), so mean FCT should be at or below drop-tail's,\n"
              "with the gap widening as buffers shrink.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return ups::exp::run_main("bench_ablation_drop_policy", argc, argv,
                             ups::exp::bench_flags, run_with);
}
