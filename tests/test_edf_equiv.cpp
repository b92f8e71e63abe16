// Appendix E: network-wide EDF (static o(p) header + per-router tmin
// state) is equivalent to LSTF (dynamic slack header) — the two produce
// exactly the same replay schedule. Checked over a sweep of original
// schedulers and topologies. Internet2 and RocketFuel give paths of many
// routers, where a carried tmin (packet::remaining_tmin) that is off by
// one hop would show; the dumbbell and parking lot have at most 4.
#include <gtest/gtest.h>

#include <tuple>

#include "core/registry.h"
#include "core/replay.h"
#include "net/network.h"
#include "net/trace.h"
#include "sim/simulator.h"
#include "topo/basic.h"
#include "topo/internet2.h"
#include "topo/rocketfuel.h"
#include "traffic/size_dist.h"
#include "traffic/source.h"
#include "traffic/workload.h"

namespace ups::core {
namespace {

struct recorded {
  topo::topology topology;
  net::trace trace;
};

recorded record_run(topo::topology topo, sched_kind kind, std::uint64_t seed,
                    bool variable_sizes) {
  recorded out;
  out.topology = std::move(topo);
  sim::simulator sim;
  net::network net(sim);
  topo::populate(out.topology, net);
  net.set_buffer_bytes(0);
  net.set_scheduler_factory(make_factory(kind, seed, &net));
  net.build();
  net::trace_recorder rec(net);
  traffic::workload_config wcfg;
  wcfg.utilization = 0.75;
  wcfg.seed = seed;
  wcfg.packet_budget = 4'000;
  std::unique_ptr<traffic::flow_size_dist> dist;
  if (variable_sizes) {
    dist = std::make_unique<traffic::bounded_pareto>(1.2, 1'460, 300'000);
  } else {
    dist = std::make_unique<traffic::fixed_size>(15'000);
  }
  auto wl = traffic::generate(net, out.topology, *dist, wcfg);
  traffic::open_loop_source app(net, std::move(wl.flows), {});
  sim.run();
  out.trace = rec.take();
  return out;
}

class edf_equivalence
    : public ::testing::TestWithParam<std::tuple<sched_kind, bool, int>> {};

TEST_P(edf_equivalence, identical_replay_schedules) {
  const auto [kind, variable_sizes, topo_idx] = GetParam();
  topo::topology t;
  switch (topo_idx) {
    case 0: t = topo::dumbbell(4, 10 * sim::kGbps, sim::kGbps); break;
    case 1: t = topo::parking_lot(4, sim::kGbps); break;
    case 2: t = topo::internet2(); break;
    default: t = topo::rocketfuel(); break;
  }
  const auto r = record_run(std::move(t), kind, 17, variable_sizes);
  ASSERT_FALSE(r.trace.packets.empty());

  replay_options opt;
  opt.keep_outcomes = true;
  const auto& topology = r.topology;
  const auto builder = [&topology](net::network& n) {
    topo::populate(topology, n);
  };
  opt.mode = replay_mode::lstf;
  const auto lstf = replay_trace(r.trace, builder, opt);
  opt.mode = replay_mode::edf;
  const auto edf = replay_trace(r.trace, builder, opt);

  ASSERT_EQ(lstf.outcomes.size(), edf.outcomes.size());
  for (std::size_t i = 0; i < lstf.outcomes.size(); ++i) {
    ASSERT_EQ(lstf.outcomes[i].id, edf.outcomes[i].id);
    EXPECT_EQ(lstf.outcomes[i].replay_out, edf.outcomes[i].replay_out)
        << "packet " << lstf.outcomes[i].id << " diverged";
    EXPECT_EQ(lstf.outcomes[i].replay_queueing,
              edf.outcomes[i].replay_queueing);
  }
}

const char* topo_suffix(int topo_idx) {
  switch (topo_idx) {
    case 0: return "_dumbbell";
    case 1: return "_parkinglot";
    case 2: return "_internet2";
    default: return "_rocketfuel";
  }
}

INSTANTIATE_TEST_SUITE_P(
    sweeps, edf_equivalence,
    ::testing::Combine(::testing::Values(sched_kind::fifo, sched_kind::lifo,
                                         sched_kind::random, sched_kind::fq,
                                         sched_kind::sjf),
                       ::testing::Bool(), ::testing::Values(0, 1, 2, 3)),
    [](const auto& info) {
      std::string name = to_string(std::get<0>(info.param));
      for (auto& c : name) {
        if (!isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      name += std::get<1>(info.param) ? "_varsize" : "_fixed";
      name += topo_suffix(std::get<2>(info.param));
      return name;
    });

}  // namespace
}  // namespace ups::core
