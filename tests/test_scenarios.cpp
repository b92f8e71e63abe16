// Parameterized integration sweep: record + LSTF-replay every experiment
// topology at reduced scale and check the paper's coarse invariants hold
// everywhere (conservation, determinism, mostly-on-time, >T <= total) —
// and across every traffic-source kind, plus label-uniqueness over the
// knobs that shape a schedule.
#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "exp/replay_experiment.h"

namespace ups::exp {
namespace {

class scenario_sweep
    : public ::testing::TestWithParam<std::tuple<topo_kind, double>> {};

TEST_P(scenario_sweep, lstf_replay_invariants) {
  scenario sc;
  sc.topo = std::get<0>(GetParam());
  sc.utilization = std::get<1>(GetParam());
  sc.packet_budget = 4'000;
  const auto orig = run_original(sc);

  // Conservation: everything injected egressed and was recorded.
  EXPECT_GE(orig.trace.packets.size(), sc.packet_budget);
  for (const auto& r : orig.trace.packets) {
    EXPECT_GE(r.ingress_time, 0);
    EXPECT_GT(r.egress_time, r.ingress_time);
    EXPECT_FALSE(r.path.empty());
  }

  const auto res = run_replay(orig, core::replay_mode::lstf);
  EXPECT_EQ(res.total, orig.trace.packets.size());
  EXPECT_LE(res.overdue_beyond_T, res.overdue);
  // Coarse version of the paper's summary: "in almost all cases, less than
  // 1% of the packets are overdue with LSTF by more than T" — allow slack
  // for the reduced packet budget.
  EXPECT_LT(res.frac_overdue_beyond_T(), 0.05) << sc.label();
  EXPECT_LT(res.frac_overdue(), 0.5) << sc.label();
}

INSTANTIATE_TEST_SUITE_P(
    all_topologies, scenario_sweep,
    ::testing::Combine(::testing::Values(topo_kind::i2_default,
                                         topo_kind::i2_1g_1g,
                                         topo_kind::i2_10g_10g,
                                         topo_kind::fattree),
                       ::testing::Values(0.3, 0.7)),
    [](const auto& info) {
      std::string name = to_string(std::get<0>(info.param));
      for (auto& c : name) {
        if (!isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      name += std::get<1>(info.param) < 0.5 ? "_30" : "_70";
      return name;
    });

// RocketFuel is big; run it once rather than in the sweep.
TEST(scenario_rocketfuel, lstf_replay_invariants) {
  scenario sc;
  sc.topo = topo_kind::rocketfuel;
  sc.packet_budget = 3'000;
  const auto orig = run_original(sc);
  const auto res = run_replay(orig, core::replay_mode::lstf);
  EXPECT_EQ(res.total, orig.trace.packets.size());
  EXPECT_LT(res.frac_overdue_beyond_T(), 0.05);
}

TEST(scenario_sweep_extra, preemption_never_hurts_overdue_beyond_t) {
  for (const auto kind :
       {core::sched_kind::random, core::sched_kind::sjf,
        core::sched_kind::lifo}) {
    scenario sc;
    sc.sched = kind;
    sc.packet_budget = 4'000;
    const auto orig = run_original(sc);
    const auto np = run_replay(orig, core::replay_mode::lstf);
    const auto pe = run_replay(orig, core::replay_mode::lstf_preemptive);
    // §2.3(5): preemption dramatically reduces overdue fractions.
    EXPECT_LE(pe.frac_overdue(), np.frac_overdue() + 0.01)
        << core::to_string(kind);
  }
}

// Every traffic-source kind must produce a replayable original: record a
// small schedule under each kind and check the same coarse invariants the
// topology sweep enforces.
class workload_sweep
    : public ::testing::TestWithParam<traffic::source_kind> {};

TEST_P(workload_sweep, lstf_replay_invariants) {
  scenario sc;
  sc.workload_kind = GetParam();
  sc.packet_budget = 4'000;
  const auto orig = run_original(sc);

  EXPECT_GE(orig.trace.packets.size(), sc.packet_budget);
  for (const auto& r : orig.trace.packets) {
    EXPECT_GE(r.ingress_time, 0);
    EXPECT_GT(r.egress_time, r.ingress_time);
    EXPECT_FALSE(r.path.empty());
  }
  if (sc.workload_kind == traffic::source_kind::closed_loop) {
    EXPECT_GT(orig.flows_completed, 0u);
    EXPECT_LE(orig.peak_outstanding_flows, sc.workload_spec.outstanding);
  }

  const auto res = run_replay(orig, core::replay_mode::lstf);
  EXPECT_EQ(res.total, orig.trace.packets.size());
  EXPECT_LE(res.overdue_beyond_T, res.overdue);
  EXPECT_LT(res.frac_overdue_beyond_T(), 0.05) << sc.label();
  EXPECT_LT(res.frac_overdue(), 0.5) << sc.label();
}

INSTANTIATE_TEST_SUITE_P(
    all_sources, workload_sweep,
    ::testing::Values(traffic::source_kind::open_loop,
                      traffic::source_kind::paced,
                      traffic::source_kind::closed_loop,
                      traffic::source_kind::incast),
    [](const auto& info) {
      std::string name = traffic::to_string(info.param);
      for (auto& c : name) {
        if (!isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

// TCP-generated originals (closed-loop via transport/tcp) record and
// replay too; ACKs ride along in the trace.
TEST(workload_sweep_extra, tcp_closed_loop_records_and_replays) {
  scenario sc;
  sc.workload_kind = traffic::source_kind::closed_loop;
  sc.workload_spec.via_tcp = true;
  sc.workload_spec.outstanding = 4;
  sc.packet_budget = 1'500;
  const auto orig = run_original(sc);
  EXPECT_GT(orig.trace.packets.size(), sc.packet_budget);
  EXPECT_GT(orig.flows_completed, 0u);
  const auto res = run_replay(orig, core::replay_mode::lstf);
  EXPECT_EQ(res.total, orig.trace.packets.size());
}

// Result files from different workloads must not collide. Labels differing
// in any schedule-shaping knob must be distinct.
TEST(scenario_labels, unique_across_workload_knobs) {
  std::vector<scenario> variants;
  const auto add = [&variants](auto&& mutate) {
    scenario sc;
    mutate(sc);
    variants.push_back(sc);
  };
  add([](scenario&) {});
  add([](scenario& sc) {
    sc.workload_kind = traffic::source_kind::paced;
  });
  add([](scenario& sc) {
    sc.workload_kind = traffic::source_kind::paced;
    sc.workload_spec.pacing_fraction = 0.25;
  });
  add([](scenario& sc) {
    sc.workload_kind = traffic::source_kind::closed_loop;
  });
  add([](scenario& sc) {
    sc.workload_kind = traffic::source_kind::closed_loop;
    sc.workload_spec.outstanding = 32;
  });
  add([](scenario& sc) {
    sc.workload_kind = traffic::source_kind::closed_loop;
    sc.workload_spec.via_tcp = true;
  });
  add([](scenario& sc) {
    sc.workload_kind = traffic::source_kind::incast;
  });
  add([](scenario& sc) {
    sc.workload_kind = traffic::source_kind::incast;
    sc.workload_spec.incast_degree = 32;
  });
  add([](scenario& sc) {
    sc.workload_kind = traffic::source_kind::incast;
    sc.workload_spec.barrier_jitter = sim::kMillisecond;
  });
  std::set<std::string> labels;
  for (const auto& sc : variants) labels.insert(sc.label());
  EXPECT_EQ(labels.size(), variants.size())
      << "scenario labels collide across workload knobs";
}

TEST(scenario_sweep_extra, omniscient_perfect_on_i2) {
  scenario sc;
  sc.packet_budget = 4'000;
  sc.record_hops = true;
  const auto orig = run_original(sc);
  const auto res = run_replay(orig, core::replay_mode::omniscient);
  EXPECT_EQ(res.overdue, 0u)
      << "Appendix B must hold on the full Internet2 topology";
}

}  // namespace
}  // namespace ups::exp
