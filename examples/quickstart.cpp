// Quickstart: record a schedule under Random scheduling on a dumbbell and
// replay it with LSTF.
//
//   1. build a topology and a network running some scheduling algorithm,
//   2. drive open-loop traffic through it while recording the schedule
//      {(path(p), i(p), o(p))},
//   3. replay the schedule with LSTF: slack(p) = o(p) - i(p) - tmin(p),
//   4. report how many packets missed their original output times.
#include <cstdio>

#include "core/registry.h"
#include "core/replay.h"
#include "exp/args.h"
#include "net/network.h"
#include "net/trace.h"
#include "sim/simulator.h"
#include "topo/basic.h"
#include "traffic/size_dist.h"
#include "traffic/source.h"
#include "traffic/workload.h"

namespace {

int run(const ups::exp::flags&) {
  using namespace ups;

  // --- 1. topology: 8 hosts around a 1 Gbps bottleneck ---
  const auto topology = topo::dumbbell(4, 10 * sim::kGbps, sim::kGbps);

  // --- 2. original run: Random scheduling at every port ---
  sim::simulator sim;
  net::network net(sim);
  topo::populate(topology, net);
  net.set_buffer_bytes(0);  // large buffers: no drops (paper's replay setup)
  net.set_scheduler_factory(
      core::make_factory(core::sched_kind::random, /*seed=*/1, &net));
  net.build();

  net::trace_recorder recorder(net);

  const auto dist = traffic::default_heavy_tailed();
  traffic::workload_config wcfg;
  wcfg.utilization = 0.7;
  wcfg.packet_budget = 20'000;
  auto wl = traffic::generate(net, topology, *dist, wcfg);
  std::printf("generated %zu flows (%llu packets), per-host rate %.0f Mbps\n",
              wl.flows.size(),
              static_cast<unsigned long long>(wl.total_packets),
              wl.per_host_rate_bps / 1e6);

  traffic::open_loop_source app(net, std::move(wl.flows), {});
  sim.run();
  const auto trace = recorder.take();
  std::printf("original schedule recorded: %zu packets, %llu events\n",
              trace.packets.size(),
              static_cast<unsigned long long>(sim.events_processed()));

  // --- 3. replay with LSTF ---
  core::replay_options opt;
  opt.mode = core::replay_mode::lstf;
  opt.threshold_T = sim::transmission_time(1500, sim::kGbps);  // 12 us
  const auto res = core::replay_trace(
      trace, [&topology](net::network& n) { topo::populate(topology, n); },
      opt);

  // --- 4. report ---
  std::printf("\nLSTF replay of a Random schedule (%llu packets):\n",
              static_cast<unsigned long long>(res.total));
  std::printf("  fraction overdue:        %.6f\n", res.frac_overdue());
  std::printf("  fraction overdue > T:    %.6f\n",
              res.frac_overdue_beyond_T());
  std::printf("\n(the paper's Table 1 reports the same two columns across "
              "13 scenarios;\n run bench/bench_table1 for the full set)\n");
  return 0;
}

}  // namespace

// Reads no flags: any argument exits 1 naming it, as a bench does.
int main(int argc, char** argv) {
  return ups::exp::run_main("example_quickstart", argc, argv, {}, run);
}
