// Property-style sweeps of the paper's theorems:
//   Appendix B  — omniscient initialization replays ANY viable schedule
//                 perfectly (swept over schedulers x topologies x loads);
//   Appendix G  — (preemptive) LSTF replays perfectly when every packet
//                 crosses at most two congestion points.
#include <gtest/gtest.h>

#include <tuple>

#include "core/registry.h"
#include "core/replay.h"
#include "net/network.h"
#include "net/trace.h"
#include "sim/simulator.h"
#include "topo/basic.h"
#include "traffic/size_dist.h"
#include "traffic/source.h"
#include "traffic/workload.h"

namespace ups::core {
namespace {

struct recorded {
  topo::topology topology;
  net::trace trace;
};

recorded record_run(topo::topology topo, sched_kind kind, double util,
                    std::uint64_t seed, std::uint64_t packets,
                    bool hop_times) {
  recorded out;
  out.topology = std::move(topo);
  sim::simulator sim;
  net::network net(sim);
  topo::populate(out.topology, net);
  net.set_buffer_bytes(0);
  net.set_scheduler_factory(make_factory(kind, seed, &net));
  net.build();
  net::trace_recorder rec(net, hop_times);
  traffic::bounded_pareto dist(1.2, 1'460, 100'000);
  traffic::workload_config wcfg;
  wcfg.utilization = util;
  wcfg.seed = seed;
  wcfg.packet_budget = packets;
  auto wl = traffic::generate(net, out.topology, dist, wcfg);
  traffic::open_loop_source app(net, std::move(wl.flows), {});
  sim.run();
  out.trace = rec.take();
  return out;
}

replay_result do_replay(const recorded& r, replay_mode mode) {
  replay_options opt;
  opt.mode = mode;
  opt.keep_outcomes = false;
  const auto& topology = r.topology;
  return replay_trace(
      r.trace, [&topology](net::network& n) { topo::populate(topology, n); },
      opt);
}

// ---- Appendix B sweep: omniscient replay is perfect for any schedule ----

class omniscient_universality
    : public ::testing::TestWithParam<std::tuple<sched_kind, double, int>> {};

TEST_P(omniscient_universality, perfect_replay) {
  const auto [kind, util, topo_idx] = GetParam();
  topo::topology t = topo_idx == 0
                         ? topo::dumbbell(4, 10 * sim::kGbps, sim::kGbps)
                         : topo::parking_lot(5, sim::kGbps);
  const auto r = record_run(std::move(t), kind, util, 23, 3'000,
                            /*hop_times=*/true);
  const auto res = do_replay(r, replay_mode::omniscient);
  EXPECT_EQ(res.overdue, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    sweeps, omniscient_universality,
    ::testing::Combine(::testing::Values(sched_kind::fifo, sched_kind::lifo,
                                         sched_kind::random, sched_kind::sjf,
                                         sched_kind::fq,
                                         sched_kind::fifo_plus),
                       ::testing::Values(0.4, 0.9), ::testing::Values(0, 1)),
    [](const auto& info) {
      std::string name = to_string(std::get<0>(info.param));
      for (auto& c : name) {
        if (!isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      name += std::get<1>(info.param) < 0.5 ? "_lo" : "_hi";
      name += std::get<2>(info.param) == 0 ? "_dumbbell" : "_parkinglot";
      return name;
    });

// ---- Appendix G sweep: two congestion points, preemptive LSTF perfect ----

// Three routers in a row; the long flow crosses two contended ports, every
// cross flow one. Hosts: h0 long-src@r0, h1 cross1-src@r0, h2 cross1-dst +
// cross2-src@r1, h3 long-dst + cross2-dst@r2. Fast host links keep the NICs
// from pre-serializing the contending flows.
struct two_cp_workload {
  topo::topology topology;
  std::vector<traffic::flow_spec> flows;
};

two_cp_workload make_two_congestion_point_workload(std::uint64_t seed) {
  two_cp_workload out;
  topo::topology t;
  t.name = "two-congestion-points";
  t.routers = 3;
  t.core_links.push_back(topo::link_spec{0, 1, sim::kGbps, 0});
  t.core_links.push_back(topo::link_spec{1, 2, sim::kGbps, 0});
  const auto fast = 10 * sim::kGbps;
  t.hosts.push_back(topo::host_spec{0, fast, 0});  // h0: long src
  t.hosts.push_back(topo::host_spec{0, fast, 0});  // h1: cross1 src
  t.hosts.push_back(topo::host_spec{1, fast, 0});  // h2: cross1 dst, c2 src
  t.hosts.push_back(topo::host_spec{2, fast, 0});  // h3: long + cross2 dst
  out.topology = t;

  sim::rng rng(seed);
  sim::time_ps now = 0;
  std::uint64_t id = 1;
  // Poisson-ish interleaved flows at moderate load on both 1G links.
  for (int i = 0; i < 120; ++i) {
    now += static_cast<sim::time_ps>(rng.exponential(120.0) *
                                     static_cast<double>(sim::kMicrosecond));
    const int which = static_cast<int>(rng.next_below(3));
    const std::uint64_t bytes = 1'460 * (1 + rng.next_below(8));
    traffic::flow_spec f;
    f.id = id++;
    f.size_bytes = bytes;
    f.start = now;
    if (which == 0) {  // long flow: r0 -> r2
      f.src = t.host_id(0);
      f.dst = t.host_id(3);
    } else if (which == 1) {  // cross 1: r0 -> r1
      f.src = t.host_id(1);
      f.dst = t.host_id(2);
    } else {  // cross 2: r1 -> r2
      f.src = t.host_id(2);
      f.dst = t.host_id(3);
    }
    out.flows.push_back(f);
  }
  return out;
}

class lstf_two_congestion_points : public ::testing::TestWithParam<int> {};

TEST_P(lstf_two_congestion_points, preemptive_lstf_replays_perfectly) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  auto wl = make_two_congestion_point_workload(seed);

  recorded r;
  r.topology = wl.topology;
  {
    sim::simulator sim;
    net::network net(sim);
    topo::populate(r.topology, net);
    net.set_buffer_bytes(0);
    net.set_scheduler_factory(make_factory(sched_kind::random, seed, &net));
    net.build();
    net::trace_recorder rec(net);
    traffic::open_loop_source app(net, std::move(wl.flows), {});
    sim.run();
    r.trace = rec.take();
  }
  ASSERT_FALSE(r.trace.packets.empty());
  const auto res = do_replay(r, replay_mode::lstf_preemptive);
  EXPECT_EQ(res.overdue, 0u)
      << "Appendix G: <=2 congestion points must replay perfectly";
}

INSTANTIATE_TEST_SUITE_P(seeds, lstf_two_congestion_points,
                         ::testing::Range(1, 9));

}  // namespace
}  // namespace ups::core
