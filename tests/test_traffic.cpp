// Tests for flow-size distributions, utilization calibration (analytic and
// measured against a live run) and open-loop burst emission.
#include <gtest/gtest.h>

#include <cmath>
#include <ios>

#include "core/registry.h"
#include "net/network.h"
#include "net/trace.h"
#include "sim/simulator.h"
#include "topo/basic.h"
#include "topo/fattree.h"
#include "topo/internet2.h"
#include "topo/rocketfuel.h"
#include "traffic/size_dist.h"
#include "traffic/source.h"
#include "traffic/workload.h"

namespace ups::traffic {
namespace {

TEST(size_dist, bounded_pareto_sample_mean_matches_analytic) {
  bounded_pareto d(1.2, 1460, 3'000'000);
  sim::rng rng(5);
  double sum = 0;
  const int n = 400'000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(d.sample(rng));
  const double sample_mean = sum / n;
  EXPECT_NEAR(sample_mean / d.mean_bytes(), 1.0, 0.05);
}

TEST(size_dist, bounded_pareto_is_heavy_tailed) {
  bounded_pareto d(1.2, 1460, 3'000'000);
  sim::rng rng(5);
  int small = 0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) {
    if (d.sample(rng) < 10'000) ++small;
  }
  // Most flows are short...
  EXPECT_GT(static_cast<double>(small) / n, 0.7);
  // ...but the mean is far above the median (mass in the tail).
  EXPECT_GT(d.mean_bytes(), 3 * 1460.0);
}

TEST(size_dist, empirical_web_search_within_bounds) {
  const auto d = web_search();
  sim::rng rng(5);
  for (int i = 0; i < 20'000; ++i) {
    const auto v = d->sample(rng);
    EXPECT_GE(v, 1'460u);
    EXPECT_LE(v, 21'024'000u);
  }
  EXPECT_GT(d->mean_bytes(), 100'000.0);
}

TEST(size_dist, fixed_returns_constant) {
  fixed_size d(4242);
  sim::rng rng(1);
  EXPECT_EQ(d.sample(rng), 4242u);
  EXPECT_DOUBLE_EQ(d.mean_bytes(), 4242.0);
}

struct workload_fixture {
  sim::simulator sim;
  net::network net{sim};
  topo::topology topo;

  explicit workload_fixture(topo::topology t) : topo(std::move(t)) {
    topo::populate(topo, net);
    net.set_scheduler_factory(core::make_factory(core::sched_kind::fifo, 1));
    net.build();
  }
};

TEST(workload, respects_packet_budget) {
  workload_fixture f(topo::dumbbell(4, 10 * sim::kGbps, sim::kGbps));
  fixed_size dist(15'000);  // 10 packets per flow
  workload_config cfg;
  cfg.packet_budget = 5'000;
  const auto wl = generate(f.net, f.topo, dist, cfg);
  EXPECT_GE(wl.total_packets, 5'000u);
  EXPECT_LT(wl.total_packets, 5'000u + 15u);
  EXPECT_EQ(wl.flows.size(), wl.total_packets / 10);
}

TEST(workload, calibrated_rate_scales_with_utilization) {
  workload_fixture f(topo::dumbbell(4, 10 * sim::kGbps, sim::kGbps));
  fixed_size dist(15'000);
  workload_config lo;
  lo.utilization = 0.2;
  lo.packet_budget = 1'000;
  workload_config hi;
  hi.utilization = 0.8;
  hi.packet_budget = 1'000;
  const auto a = generate(f.net, f.topo, dist, lo);
  const auto b = generate(f.net, f.topo, dist, hi);
  EXPECT_NEAR(b.per_host_rate_bps / a.per_host_rate_bps, 4.0, 0.01);
}

TEST(workload, dumbbell_bottleneck_calibration_is_exact) {
  // 4 hosts per side, uniform matrix: the bottleneck link carries all
  // cross traffic. With 8 hosts sending rate R each, and (4x4)/(8x7)ths of
  // pairs crossing each direction... easier: verify directly that offered
  // load on the bottleneck equals the target.
  workload_fixture f(topo::dumbbell(4, 10 * sim::kGbps, sim::kGbps));
  fixed_size dist(15'000);
  workload_config cfg;
  cfg.utilization = 0.7;
  cfg.packet_budget = 1'000;
  const auto wl = generate(f.net, f.topo, dist, cfg);
  // Each host sends R/(H-1) to each peer; 4 of 7 peers are across the
  // bottleneck, 4 hosts share one direction: load = 4 * R * 4/7.
  const double offered = 4.0 * wl.per_host_rate_bps * 4.0 / 7.0;
  EXPECT_NEAR(offered / 1e9, 0.7, 1e-9);
}

TEST(workload, poisson_interarrivals_have_exponential_cv) {
  workload_fixture f(topo::dumbbell(4, 10 * sim::kGbps, sim::kGbps));
  fixed_size dist(1'500);
  workload_config cfg;
  cfg.packet_budget = 20'000;
  const auto wl = generate(f.net, f.topo, dist, cfg);
  ASSERT_GT(wl.flows.size(), 1'000u);
  double sum = 0, sq = 0;
  for (std::size_t i = 1; i < wl.flows.size(); ++i) {
    const double gap =
        static_cast<double>(wl.flows[i].start - wl.flows[i - 1].start);
    sum += gap;
    sq += gap * gap;
  }
  const double n = static_cast<double>(wl.flows.size() - 1);
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  const double cv = std::sqrt(var) / mean;  // exponential: cv = 1
  EXPECT_NEAR(cv, 1.0, 0.1);
}

TEST(workload, sampled_calibration_close_to_exact) {
  // Force the sampled path on a topology small enough to also enumerate.
  workload_fixture f(topo::internet2());
  fixed_size dist(15'000);
  workload_config exact;
  exact.packet_budget = 100;
  workload_config sampled;
  sampled.packet_budget = 100;
  sampled.exact_pair_limit = 10;  // forces sampling
  sampled.sampled_pairs = 40'000;
  const auto a = generate(f.net, f.topo, dist, exact);
  const auto b = generate(f.net, f.topo, dist, sampled);
  EXPECT_NEAR(b.per_host_rate_bps / a.per_host_rate_bps, 1.0, 0.15);
}

// The analytic calibration promises that the most loaded link carries the
// target utilization. Check it against reality: drive the calibrated
// workload through the network and measure the busiest link's throughput
// over the trace span. Fixed-size flows keep the statistical noise small;
// the drain tail after the last arrival biases the measurement slightly
// low, hence the asymmetric tolerance.
double measured_utilization_on(topo::topology topo, double target) {
  workload_fixture f(std::move(topo));
  net::trace_recorder rec(f.net);
  fixed_size dist(15'000);
  workload_config cfg;
  cfg.utilization = target;
  cfg.packet_budget = 20'000;
  auto wl = generate(f.net, f.topo, dist, cfg);
  open_loop_source src(f.net, std::move(wl.flows), {});
  f.sim.run();
  const auto tr = rec.take();
  sim::time_ps first = tr.packets.front().ingress_time;
  sim::time_ps last = 0;
  for (const auto& r : tr.packets) {
    first = std::min(first, r.ingress_time);
    last = std::max(last, r.egress_time);
  }
  return measured_peak_utilization(f.net, last - first);
}

TEST(workload_calibration, measured_utilization_matches_target_on_i2) {
  // Scale down I2's multi-millisecond WAN delays (as the fairness
  // experiment does): the measurement window must be dominated by the
  // generation span, not by propagation of the final packets.
  auto t = topo::internet2();
  t.scale_delays(0.01);
  const double u = measured_utilization_on(std::move(t), 0.6);
  EXPECT_GT(u, 0.6 * 0.8);
  EXPECT_LT(u, 0.6 * 1.2);
}

TEST(workload_calibration, measured_utilization_matches_target_on_fattree) {
  const double u = measured_utilization_on(topo::fattree(), 0.6);
  EXPECT_GT(u, 0.6 * 0.8);
  EXPECT_LT(u, 0.6 * 1.2);
}

// calibrate_per_host_rate pinned bit for bit at utilization 0.7, seed 1 (or
// 2) and the default workload_config: a changed route choice, summation
// order or sampled pair fails one of these, by name, before the golden
// digests fail.
double calibrated_rate(topo::topology t, std::uint64_t seed = 1) {
  workload_fixture f(std::move(t));
  workload_config cfg;
  cfg.utilization = 0.7;
  cfg.seed = seed;
  return calibrate_per_host_rate(f.net, f.topo, cfg);
}

TEST(workload_calibration, pinned_on_i2_1g_10g) {
  const double r = calibrated_rate(topo::internet2_1g_10g());
  EXPECT_EQ(r, 0x1.7d494cc4ec475p+28) << std::hexfloat << r;
}

TEST(workload_calibration, pinned_on_i2_1g_1g) {
  const double r = calibrated_rate(topo::internet2_1g_1g());
  EXPECT_EQ(r, 0x1.7d494cc4ec475p+28) << std::hexfloat << r;
}

TEST(workload_calibration, pinned_on_fattree) {
  const double r = calibrated_rate(topo::fattree());
  EXPECT_EQ(r, 0x1.d91ca3600000dp+28) << std::hexfloat << r;
}

TEST(workload_calibration, pinned_on_rocketfuel) {
  // 830 hosts: the sampled path (20,000 pairs), through leaf routers.
  const double r = calibrated_rate(topo::rocketfuel());
  EXPECT_EQ(r, 0x1.f9280724b034dp+22) << std::hexfloat << r;
}

TEST(workload_calibration, pinned_on_fattree_seed_2) {
  // 128 hosts: every pair is counted, so no draw is made and the seed
  // cannot move the rate.
  const double r = calibrated_rate(topo::fattree(), 2);
  EXPECT_EQ(r, 0x1.d91ca3600000dp+28) << std::hexfloat << r;
}

TEST(workload_calibration, pinned_on_rocketfuel_seed_2) {
  // Another 20,000 sampled pairs.
  const double r = calibrated_rate(topo::rocketfuel(), 2);
  EXPECT_EQ(r, 0x1.ff2d14b3be411p+22) << std::hexfloat << r;
}

// Steady-state residency bounds: a closed-loop source can never hold more
// than outstanding x (packets per flow) packets in flight, and a paced
// source materializes a lone burst gradually instead of all at once.
TEST(workload_residency, closed_loop_bounded_by_construction) {
  workload_fixture f(topo::dumbbell(4, 10 * sim::kGbps, sim::kGbps));
  fixed_size dist(15'000);  // 10 packets per flow
  workload_config cfg;
  cfg.packet_budget = 2'000;
  auto wl = generate(f.net, f.topo, dist, cfg);
  closed_loop_source src(f.net, std::move(wl.flows), 4, /*via_tcp=*/false,
                         {});
  f.sim.run();
  EXPECT_LE(src.peak_outstanding(), 4u);
  // Pool high-water: the outstanding flows' packets, plus the delivered
  // packet that is still alive inside the host handler when the completion
  // it signals launches the next flow.
  EXPECT_LE(f.net.pool().created(), 4u * 10u + 1u);
}

TEST(workload_residency, paced_stays_at_open_loop_or_below) {
  const auto run_kind = [](source_kind kind) {
    workload_fixture f(topo::dumbbell(4, 10 * sim::kGbps, sim::kGbps));
    const auto dist = default_heavy_tailed();
    workload_config cfg;
    cfg.packet_budget = 5'000;
    auto made = make_source(f.net, f.topo, *dist, cfg, kind);
    f.sim.run();
    return f.net.pool().created();
  };
  EXPECT_LE(run_kind(source_kind::paced), run_kind(source_kind::open_loop));
}

TEST(open_loop_source_test, emits_mtu_sized_bursts) {
  workload_fixture f(topo::line(2));
  net::trace_recorder rec(f.net);
  std::vector<flow_spec> flows;
  flows.push_back(flow_spec{1, f.topo.host_id(0), f.topo.host_id(1), 4'000,
                            sim::kMicrosecond});
  open_loop_source src(f.net, std::move(flows), {});
  f.sim.run();
  EXPECT_EQ(src.packets_emitted(), 3u);  // 1500 + 1500 + 1000
  const auto tr = rec.take();
  ASSERT_EQ(tr.packets.size(), 3u);
  std::uint64_t bytes = 0;
  for (const auto& r : tr.packets) bytes += r.size_bytes;
  EXPECT_EQ(bytes, 4'000u);
  for (const auto& r : tr.packets) {
    EXPECT_EQ(r.flow_size_bytes, 4'000u);
    EXPECT_EQ(r.flow_id, 1u);
  }
}

TEST(open_loop_source_test, stamper_applies_to_every_packet) {
  workload_fixture f(topo::line(2));
  std::vector<flow_spec> flows;
  flows.push_back(
      flow_spec{1, f.topo.host_id(0), f.topo.host_id(1), 6'000, 0});
  source_options opt;
  int stamped = 0;
  opt.stamper = [&stamped](net::packet& p) {
    p.slack = 12345;
    ++stamped;
  };
  open_loop_source src(f.net, std::move(flows), std::move(opt));
  f.sim.run();
  EXPECT_EQ(stamped, 4);
}

}  // namespace
}  // namespace ups::traffic
