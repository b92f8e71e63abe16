// Smoke/integration tests of the experiment harness at reduced scale: every
// table/figure pipeline must run end to end and produce sane numbers.
#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <string>

#include "exp/args.h"
#include "exp/fairness_experiment.h"
#include "exp/fct_experiment.h"
#include "exp/replay_experiment.h"
#include "exp/tail_experiment.h"

namespace ups::exp {
namespace {

TEST(replay_experiment, i2_random_small_budget) {
  scenario sc;
  sc.packet_budget = 6'000;
  const auto orig = run_original(sc);
  EXPECT_GE(orig.trace.packets.size(), 6'000u);
  EXPECT_EQ(orig.threshold_T, 12 * sim::kMicrosecond);

  const auto res = run_replay(orig, core::replay_mode::lstf);
  EXPECT_EQ(res.total, orig.trace.packets.size());
  // Even at small scale the paper's qualitative claim holds: the vast
  // majority of packets meet their original output times.
  EXPECT_LT(res.frac_overdue(), 0.2);
  EXPECT_LE(res.frac_overdue_beyond_T(), res.frac_overdue());
}

TEST(replay_experiment, lstf_beats_naive_priorities) {
  scenario sc;
  sc.packet_budget = 6'000;
  const auto orig = run_original(sc);
  const auto lstf = run_replay(orig, core::replay_mode::lstf);
  const auto prio =
      run_replay(orig, core::replay_mode::priority_output_time);
  // §2.3(7): simple priorities with priority = o(p) are far worse.
  EXPECT_GT(prio.frac_overdue(), lstf.frac_overdue());
}

TEST(replay_experiment, deterministic_given_seed) {
  scenario sc;
  sc.packet_budget = 2'000;
  const auto a = table1_row(sc);
  const auto b = table1_row(sc);
  EXPECT_EQ(a.overdue, b.overdue);
  EXPECT_EQ(a.overdue_beyond_T, b.overdue_beyond_T);
  EXPECT_EQ(a.total, b.total);
}

TEST(replay_experiment, scenario_labels) {
  scenario sc;
  EXPECT_EQ(sc.label(), "I2 1Gbps-10Gbps @70% Random heavy open-loop");
  sc.sched = core::sched_kind::fq_fifo_plus_mix;
  sc.utilization = 0.3;
  EXPECT_EQ(sc.label(), "I2 1Gbps-10Gbps @30% FQ/FIFO+ heavy open-loop");
  sc.flows = flow_dist_kind::fixed;
  EXPECT_EQ(sc.label(),
            "I2 1Gbps-10Gbps @30% FQ/FIFO+ fixed15000B open-loop");
  sc.workload_kind = traffic::source_kind::paced;
  sc.workload_spec.pacing_fraction = 0.5;
  EXPECT_EQ(sc.label(),
            "I2 1Gbps-10Gbps @30% FQ/FIFO+ fixed15000B paced:0.5");
}

TEST(experiment_args, numeric_flags_must_parse_whole) {
  const auto parse = [](std::string flag) {
    char prog[] = "bench";
    char* argv[] = {prog, flag.data()};
    return args::parse(2, argv);
  };
  const auto a = parse("--packets=12000");
  EXPECT_EQ(a.packets, 12'000u);
  EXPECT_EQ(a.budget(6'000), 12'000u);
  EXPECT_DOUBLE_EQ(parse("--utilization=0.7").utilization, 0.7);
  // An unknown flag — a typo, or a worker knob only tracec reads — is an
  // error, not a run with the default setting.
  for (const char* bad :
       {"--packets=12k", "--packets=", "--packets=-1", "--seed=x",
        "--scale=x", "--scale=1.5x", "--utilization=",
        "--packets=99999999999999999999999", "--pakcets=1000",
        "--dispatch=thread:2", "--kill-worker-after=3"}) {
    try {
      (void)parse(bad);
      ADD_FAILURE() << bad << " parsed";
    } catch (const std::invalid_argument& e) {
      // The message names the flag so the user can find the typo.
      const std::string flag(bad, std::strchr(bad, '=') - bad);
      EXPECT_NE(std::string(e.what()).find(flag), std::string::npos)
          << e.what();
    }
  }
}

TEST(fct_experiment, sjf_like_beats_fifo_at_small_scale) {
  fct_config cfg;
  cfg.packet_budget = 50'000;
  const auto fifo = run_fct(fct_variant::fifo, cfg);
  const auto sjf = run_fct(fct_variant::sjf, cfg);
  const auto lstf = run_fct(fct_variant::lstf, cfg);
  EXPECT_GT(fifo.flows, 30u);
  EXPECT_EQ(fifo.flows, sjf.flows);
  // Figure 2's qualitative shape: size-aware schedulers beat FIFO on mean
  // FCT, and LSTF with slack = size x D tracks SJF closely.
  EXPECT_LT(sjf.overall_mean_fct_s, fifo.overall_mean_fct_s);
  EXPECT_LT(lstf.overall_mean_fct_s, fifo.overall_mean_fct_s);
  const double ratio = lstf.overall_mean_fct_s / sjf.overall_mean_fct_s;
  EXPECT_GT(ratio, 0.8);
  EXPECT_LT(ratio, 1.25);
}

TEST(tail_experiment, lstf_uniform_slack_reduces_tail) {
  tail_config cfg;
  cfg.packet_budget = 30'000;
  const auto fifo = run_tail(tail_variant::fifo, cfg);
  const auto lstf = run_tail(tail_variant::lstf_uniform_slack, cfg);
  ASSERT_GT(fifo.delay_s.size(), 10'000u);
  ASSERT_EQ(fifo.delay_s.size(), lstf.delay_s.size())
      << "same input load in both runs";
  // Figure 3's qualitative shape: FIFO+ behaviour trims the tail while the
  // mean stays comparable (within a few percent either way).
  EXPECT_LT(lstf.p99_s, fifo.p99_s * 1.05);
  EXPECT_NEAR(lstf.mean_s / fifo.mean_s, 1.0, 0.2);
}

TEST(fairness_experiment, fq_converges_and_lstf_tracks_it) {
  fairness_config cfg;
  cfg.flows = 30;  // reduced scale for test time
  cfg.horizon = 12 * sim::kMillisecond;
  const auto fq = run_fairness(fairness_variant::fq, 0, cfg);
  const auto lstf = run_fairness(fairness_variant::lstf, sim::kGbps, cfg);
  ASSERT_FALSE(fq.jain.empty());
  // After all flows have started, FQ sits near perfect fairness and LSTF
  // with virtual-clock slack converges toward it (§3.3).
  EXPECT_GT(fq.final_jain, 0.9);
  EXPECT_GT(lstf.final_jain, 0.85);
}

TEST(fairness_experiment, weighted_fairness_tracks_weight) {
  fairness_config cfg;
  cfg.flows = 20;
  cfg.horizon = 16 * sim::kMillisecond;
  const auto res = run_weighted_fairness(2.0, sim::kGbps / 2, cfg);
  // §3.3's weighted extension: class 1 (weight 2) should see roughly twice
  // class 0's throughput once converged.
  EXPECT_GT(res.measured_ratio, 1.4);
  EXPECT_LT(res.measured_ratio, 2.8);
}

TEST(fairness_experiment, small_rest_still_converges) {
  fairness_config cfg;
  cfg.flows = 20;
  cfg.horizon = 12 * sim::kMillisecond;
  const auto lstf =
      run_fairness(fairness_variant::lstf, sim::kGbps / 100, cfg);
  EXPECT_GT(lstf.final_jain, 0.8)
      << "asymptotic fairness holds for any r_est <= r*";
}

}  // namespace
}  // namespace ups::exp
