// Tests for the composable traffic-source subsystem (traffic/source.h):
// paced emission spacing, closed-loop outstanding bounds (UDP and
// TCP-driven), incast fan-in structure, and the workload-name parser. The
// open-loop source's traces are pinned by tests/test_golden_digests.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/registry.h"
#include "net/network.h"
#include "net/trace.h"
#include "sim/simulator.h"
#include "topo/basic.h"
#include "traffic/size_dist.h"
#include "traffic/source.h"
#include "traffic/workload.h"

namespace ups::traffic {
namespace {

struct fixture {
  sim::simulator sim;
  net::network net{sim};
  topo::topology topo;

  explicit fixture(topo::topology t,
                   core::sched_kind sched = core::sched_kind::fifo,
                   std::int64_t buffer_bytes = 0)
      : topo(std::move(t)) {
    topo::populate(topo, net);
    net.set_buffer_bytes(buffer_bytes);
    net.set_scheduler_factory(core::make_factory(sched, 1, &net));
    net.build();
  }
};

// --- paced_source ------------------------------------------------------------

TEST(paced_source_test, spaces_packets_at_the_paced_rate) {
  // One 15 kB flow over a 1 Gbps line: at fraction 0.5 the paced rate is
  // 500 Mbps, so full-MTU packets leave 24 us apart (two serialization
  // times) and arrive at the ingress router with the same spacing.
  fixture f(topo::line(2));
  net::trace_recorder rec(f.net);
  std::vector<flow_spec> flows;
  flows.push_back(flow_spec{1, f.topo.host_id(0), f.topo.host_id(1), 15'000,
                            sim::kMicrosecond});
  paced_source src(f.net, std::move(flows), 0.5, {});
  f.sim.run();
  EXPECT_EQ(src.packets_emitted(), 10u);
  EXPECT_EQ(src.flows_completed(), 1u);
  auto tr = rec.take();
  ASSERT_EQ(tr.packets.size(), 10u);
  net::sort_by_ingress(tr);
  const sim::time_ps expected_gap =
      2 * sim::transmission_time(1500, sim::kGbps);
  for (std::size_t i = 2; i < tr.packets.size(); ++i) {
    // Skip the first gap (last packet is 1500 B like the rest here, but the
    // first arrival also carries the host-link propagation).
    EXPECT_EQ(tr.packets[i].ingress_time - tr.packets[i - 1].ingress_time,
              expected_gap);
  }
}

TEST(paced_source_test, defers_materialization_of_a_lone_elephant) {
  // The mechanism in isolation: a 3 MB flow on a 1 Gbps line. Open-loop
  // materializes all ~2000 packets at t=0 (they park in the NIC queue);
  // pacing at the line rate keeps only the bandwidth-delay product's worth
  // live at any instant.
  const std::uint64_t elephant = 3'000'000;
  fixture open_f(topo::line(2));
  std::vector<flow_spec> open_flows{
      flow_spec{1, open_f.topo.host_id(0), open_f.topo.host_id(1), elephant,
                0}};
  open_loop_source open_src(open_f.net, std::move(open_flows), {});
  open_f.sim.run();
  const auto open_peak = open_f.net.pool().created();

  fixture paced_f(topo::line(2));
  std::vector<flow_spec> paced_flows{
      flow_spec{1, paced_f.topo.host_id(0), paced_f.topo.host_id(1), elephant,
                0}};
  paced_source paced_src(paced_f.net, std::move(paced_flows), 1.0, {});
  paced_f.sim.run();
  const auto paced_peak = paced_f.net.pool().created();

  EXPECT_EQ(open_src.packets_emitted(), paced_src.packets_emitted());
  EXPECT_GT(open_peak, 1'900u);  // essentially the whole flow at once
  EXPECT_LT(paced_peak, open_peak / 10)
      << "a paced lone flow should keep only O(BDP) packets live";
}

TEST(paced_source_test, stays_below_open_loop_under_contended_load) {
  // Under a full calibrated workload the gain is bounded by contention (a
  // paced flow still queues behind sharers at the bottleneck), but paced
  // residency must never exceed the open-loop burst baseline.
  const auto dist = default_heavy_tailed();
  workload_config wcfg;
  wcfg.utilization = 0.7;
  wcfg.packet_budget = 10'000;

  fixture open_f(topo::dumbbell(4, 10 * sim::kGbps, sim::kGbps,
                                sim::kMillisecond));
  auto open_wl = generate(open_f.net, open_f.topo, *dist, wcfg);
  open_loop_source open_src(open_f.net, std::move(open_wl.flows), {});
  open_f.sim.run();
  const auto open_peak = open_f.net.pool().created();

  fixture paced_f(topo::dumbbell(4, 10 * sim::kGbps, sim::kGbps,
                                 sim::kMillisecond));
  auto paced_wl = generate(paced_f.net, paced_f.topo, *dist, wcfg);
  paced_source paced_src(paced_f.net, std::move(paced_wl.flows), 1.0, {});
  paced_f.sim.run();
  const auto paced_peak = paced_f.net.pool().created();

  EXPECT_EQ(open_src.packets_emitted(), paced_src.packets_emitted());
  EXPECT_LT(paced_peak, open_peak);
}

// --- closed_loop_source ------------------------------------------------------

TEST(closed_loop_source_test, bounds_outstanding_and_completes_all_flows) {
  fixture f(topo::dumbbell(4, 10 * sim::kGbps, sim::kGbps));
  std::vector<flow_spec> flows;
  // 20 flows all requested at t=0: only 2 may be in flight at once.
  for (std::uint64_t i = 0; i < 20; ++i) {
    flows.push_back(flow_spec{i + 1, f.topo.host_id(i % 4),
                              f.topo.host_id(4 + (i % 4)), 15'000, 0});
  }
  closed_loop_source src(f.net, std::move(flows), 2, /*via_tcp=*/false, {});
  f.sim.run();
  EXPECT_EQ(src.flows_completed(), 20u);
  EXPECT_EQ(src.peak_outstanding(), 2u);
  EXPECT_EQ(src.packets_emitted(), 200u);  // 10 packets per flow
  EXPECT_EQ(f.net.stats().delivered, 200u);
}

TEST(closed_loop_source_test, window_wider_than_its_flows_completes_them) {
  // The widest window a knob can name: the source reserves room for its
  // three flows, not for 2^32 - 1 of them.
  fixture f(topo::dumbbell(4, 10 * sim::kGbps, sim::kGbps));
  std::vector<flow_spec> flows;
  for (std::uint64_t i = 0; i < 3; ++i) {
    flows.push_back(flow_spec{i + 1, f.topo.host_id(i), f.topo.host_id(4 + i),
                              15'000, 0});
  }
  closed_loop_source src(f.net, std::move(flows),
                         std::numeric_limits<std::uint32_t>::max(),
                         /*via_tcp=*/false, {});
  f.sim.run();
  EXPECT_EQ(src.flows_completed(), 3u);
  EXPECT_EQ(src.peak_outstanding(), 3u);
  EXPECT_EQ(f.net.stats().delivered, 30u);
}

TEST(closed_loop_source_test, respects_start_times_when_window_open) {
  fixture f(topo::line(2));
  net::trace_recorder rec(f.net);
  std::vector<flow_spec> flows;
  flows.push_back(
      flow_spec{1, f.topo.host_id(0), f.topo.host_id(1), 3'000, 0});
  flows.push_back(flow_spec{2, f.topo.host_id(0), f.topo.host_id(1), 3'000,
                            sim::kMillisecond});
  closed_loop_source src(f.net, std::move(flows), 8, /*via_tcp=*/false, {});
  f.sim.run();
  EXPECT_EQ(src.flows_completed(), 2u);
  auto tr = rec.take();
  net::sort_by_ingress(tr);
  // The second flow's start time is an earliest-start, honored exactly when
  // the window has room.
  ASSERT_EQ(tr.packets.size(), 4u);
  EXPECT_GE(tr.packets[2].ingress_time, sim::kMillisecond);
}

TEST(closed_loop_source_test, drops_cannot_leak_window_slots) {
  // Finite buffers small enough to force drops: every flow must still
  // complete (a dropped packet counts as that packet's exit from the
  // network), and the pre-existing drop hook must keep firing.
  fixture f(topo::dumbbell(4, 10 * sim::kGbps, sim::kGbps),
            core::sched_kind::fifo, /*buffer_bytes=*/4'500);
  std::uint64_t hook_drops = 0;
  f.net.hooks().on_drop = [&hook_drops](const net::packet&, net::node_id,
                                        sim::time_ps,
                                        net::drop_kind) { ++hook_drops; };
  std::vector<flow_spec> flows;
  for (std::uint64_t i = 0; i < 16; ++i) {
    flows.push_back(flow_spec{i + 1, f.topo.host_id(i % 4),
                              f.topo.host_id(4 + (i % 4)), 30'000, 0});
  }
  closed_loop_source src(f.net, std::move(flows), 8, /*via_tcp=*/false, {});
  f.sim.run();
  EXPECT_GT(f.net.stats().dropped, 0u) << "test needs actual drops to bite";
  EXPECT_EQ(hook_drops, f.net.stats().dropped) << "chained hook must fire";
  EXPECT_EQ(src.flows_completed(), 16u);
}

TEST(closed_loop_source_test, tcp_driven_flows_complete_within_bound) {
  fixture f(topo::dumbbell(2, 10 * sim::kGbps, sim::kGbps));
  std::vector<flow_spec> flows;
  for (std::uint64_t i = 0; i < 6; ++i) {
    flows.push_back(flow_spec{i + 1, f.topo.host_id(i % 2),
                              f.topo.host_id(2 + (i % 2)), 50'000, 0});
  }
  closed_loop_source src(f.net, std::move(flows), 2, /*via_tcp=*/true, {});
  f.sim.run();
  EXPECT_EQ(src.flows_completed(), 6u);
  EXPECT_EQ(src.peak_outstanding(), 2u);
  EXPECT_GT(src.packets_emitted(), 0u);
}

// --- incast ------------------------------------------------------------------
// generate_incast lists each epoch's flows together: every consecutive
// group of `degree` flows is one epoch.

TEST(incast_test, epochs_have_distinct_senders_aimed_at_one_victim) {
  fixture f(topo::dumbbell(8, 10 * sim::kGbps, sim::kGbps));
  fixed_size dist(15'000);
  workload_config cfg;
  cfg.packet_budget = 2'000;
  constexpr std::size_t kDegree = 5;
  const auto wl = generate_incast(f.net, f.topo, dist, cfg, kDegree,
                                  10 * sim::kMicrosecond);
  ASSERT_FALSE(wl.flows.empty());
  ASSERT_EQ(wl.flows.size() % kDegree, 0u);
  EXPECT_GE(wl.total_packets, cfg.packet_budget);
  for (std::size_t e = 0; e < wl.flows.size(); e += kDegree) {
    const net::node_id victim = wl.flows[e].dst;
    std::set<net::node_id> senders;
    sim::time_ps first = wl.flows[e].start;
    sim::time_ps last = first;
    for (std::size_t k = e; k < e + kDegree; ++k) {
      const flow_spec& fl = wl.flows[k];
      EXPECT_EQ(fl.id, k + 1);
      EXPECT_EQ(fl.dst, victim) << "one victim per epoch";
      EXPECT_EQ(fl.size_bytes, 15'000u);
      senders.insert(fl.src);
      first = std::min(first, fl.start);
      last = std::max(last, fl.start);
    }
    EXPECT_EQ(senders.size(), kDegree) << "senders must be distinct";
    EXPECT_EQ(senders.count(victim), 0u) << "victim cannot send to itself";
    EXPECT_GE(first, 0);
    EXPECT_LE(last - first, 10 * sim::kMicrosecond)
        << "starts within the barrier jitter";
  }
}

TEST(incast_test, source_emits_every_epoch_toward_its_victim) {
  fixture f(topo::dumbbell(8, 10 * sim::kGbps, sim::kGbps));
  net::trace_recorder rec(f.net);
  fixed_size dist(3'000);
  workload_config cfg;
  cfg.packet_budget = 1'000;
  source_tuning tune;
  tune.incast_degree = 4;
  tune.barrier_jitter = 5 * sim::kMicrosecond;
  // The plan make_source runs, generated again to check the trace by.
  const auto wl = generate_incast(f.net, f.topo, dist, cfg,
                                  tune.incast_degree, tune.barrier_jitter);
  // Victim per flow id, to check the recorded trace against the plan.
  std::vector<net::node_id> victim_of(wl.flows.size() + 1,
                                      net::kInvalidNode);
  for (const flow_spec& fl : wl.flows) victim_of[fl.id] = fl.dst;
  const auto made =
      make_source(f.net, f.topo, dist, cfg, source_kind::incast, tune);
  EXPECT_EQ(made.planned_packets, wl.total_packets);
  f.sim.run();
  EXPECT_EQ(made.src->flows_completed(), wl.flows.size());
  EXPECT_EQ(made.src->packets_emitted(), wl.total_packets);
  const auto tr = rec.take();
  ASSERT_EQ(tr.packets.size(), wl.total_packets);
  for (const auto& r : tr.packets) {
    ASSERT_LT(r.flow_id, victim_of.size());
    EXPECT_EQ(r.dst_host, victim_of[r.flow_id]);
  }
}

// --- mixed -------------------------------------------------------------------

TEST(mixed_source_test, runs_both_halves_with_disjoint_ids) {
  fixture f(topo::dumbbell(8, 10 * sim::kGbps, sim::kGbps));
  net::trace_recorder rec(f.net);
  const auto dist = default_heavy_tailed();
  workload_config cfg;
  cfg.utilization = 0.6;
  cfg.packet_budget = 4'000;
  source_tuning tune;
  tune.incast_degree = 4;
  tune.outstanding = 8;
  tune.incast_share = 0.3;
  auto made = make_source(f.net, f.topo, *dist, cfg, source_kind::mixed, tune);
  f.sim.run();

  auto* mixed = dynamic_cast<mixed_source*>(made.src.get());
  ASSERT_NE(mixed, nullptr);
  EXPECT_GT(mixed->background_packets(), 0u) << "closed loop must run";
  EXPECT_GT(mixed->incast_packets(), 0u) << "incast epochs must fire";
  EXPECT_LE(mixed->peak_outstanding(), tune.outstanding);
  EXPECT_EQ(made.src->packets_emitted(),
            mixed->background_packets() + mixed->incast_packets());
  EXPECT_GE(made.planned_packets, cfg.packet_budget);

  // Replay sorts outcomes by packet id and the closed loop matches
  // completions by flow id: both namespaces must be collision-free across
  // the two member sources.
  const auto tr = rec.take();
  EXPECT_EQ(tr.packets.size(), made.src->packets_emitted());
  std::set<std::uint64_t> ids;
  for (const auto& r : tr.packets) {
    EXPECT_TRUE(ids.insert(r.id).second) << "duplicate packet id " << r.id;
  }
}

TEST(mixed_source_test, zero_share_degenerates_to_closed_loop) {
  fixture f(topo::dumbbell(4, 10 * sim::kGbps, sim::kGbps));
  const auto dist = default_heavy_tailed();
  workload_config cfg;
  cfg.utilization = 0.5;
  cfg.packet_budget = 1'000;
  source_tuning tune;
  tune.incast_share = 0.0;
  auto made = make_source(f.net, f.topo, *dist, cfg, source_kind::mixed, tune);
  f.sim.run();
  auto* mixed = dynamic_cast<mixed_source*>(made.src.get());
  ASSERT_NE(mixed, nullptr);
  EXPECT_EQ(mixed->incast_packets(), 0u);
  EXPECT_GT(mixed->background_packets(), 0u);
}

// --- start order -------------------------------------------------------------
// A source files one start event at a time, under the sequence number an
// up-front schedule_at would have taken. Starts given out of order and with
// ties must run in (start, index) order, as up-front scheduling ran them.

constexpr sim::time_ps kUs = sim::kMicrosecond;
const std::vector<sim::time_ps> kStarts = {30 * kUs, 10 * kUs, 20 * kUs,
                                           10 * kUs, 30 * kUs, 0,
                                           10 * kUs};
// Indices of kStarts by (start, index).
const std::vector<std::size_t> kStartOrder = {5, 1, 3, 6, 2, 0, 4};

using start_log = std::vector<std::pair<std::uint64_t, sim::time_ps>>;

// One 3 kB flow per start, each from its own host so that even the paced
// source emits a flow's first packet the moment the flow starts.
std::vector<flow_spec> out_of_order_flows(const fixture& f) {
  std::vector<flow_spec> flows;
  for (std::size_t i = 0; i < kStarts.size(); ++i) {
    flows.push_back(flow_spec{100 + i, f.topo.host_id(static_cast<int>(i)),
                              f.topo.host_id(static_cast<int>(8 + i)), 3'000,
                              kStarts[i]});
  }
  return flows;
}

// Logs (flow id, now) for the first packet of every flow.
source_options logging_starts(fixture& f, start_log& log) {
  source_options opt;
  opt.stamper = [&f, &log](net::packet& p) {
    if (p.seq_in_flow == 0) log.emplace_back(p.flow_id, f.sim.now());
  };
  return opt;
}

start_log expected_starts() {
  start_log out;
  for (const std::size_t i : kStartOrder) out.emplace_back(100 + i, kStarts[i]);
  return out;
}

TEST(source_start_order, open_loop_starts_flows_by_start_then_index) {
  fixture f(topo::dumbbell(8, 10 * sim::kGbps, sim::kGbps));
  start_log log;
  open_loop_source src(f.net, out_of_order_flows(f), logging_starts(f, log));
  f.sim.run();
  EXPECT_EQ(log, expected_starts());
}

TEST(source_start_order, paced_starts_flows_by_start_then_index) {
  fixture f(topo::dumbbell(8, 10 * sim::kGbps, sim::kGbps));
  start_log log;
  paced_source src(f.net, out_of_order_flows(f), 1.0, logging_starts(f, log));
  f.sim.run();
  EXPECT_EQ(log, expected_starts());
}

TEST(source_start_order, closed_loop_launches_flows_by_start_then_index) {
  fixture f(topo::dumbbell(8, 10 * sim::kGbps, sim::kGbps));
  start_log log;
  closed_loop_source src(f.net, out_of_order_flows(f), 8, /*via_tcp=*/false,
                         logging_starts(f, log));
  f.sim.run();
  EXPECT_EQ(log, expected_starts());
}

TEST(source_start_order, start_in_the_past_throws_at_construction) {
  fixture f(topo::dumbbell(8, 10 * sim::kGbps, sim::kGbps));
  f.sim.run_until(sim::kMillisecond);
  EXPECT_THROW(open_loop_source(f.net, out_of_order_flows(f), {}),
               std::logic_error);
  EXPECT_TRUE(f.sim.empty());
}

// --- parse_workload ----------------------------------------------------------

TEST(parse_workload_test, names_knobs_and_errors) {
  source_tuning t;
  EXPECT_EQ(parse_workload("open-loop", t), source_kind::open_loop);
  EXPECT_EQ(parse_workload("open_loop", t), source_kind::open_loop);
  EXPECT_EQ(parse_workload("paced:0.25", t), source_kind::paced);
  EXPECT_DOUBLE_EQ(t.pacing_fraction, 0.25);
  EXPECT_EQ(parse_workload("closed-loop:16", t), source_kind::closed_loop);
  EXPECT_EQ(t.outstanding, 16u);
  EXPECT_FALSE(t.via_tcp);
  EXPECT_EQ(parse_workload("closed-loop-tcp:4", t),
            source_kind::closed_loop);
  EXPECT_TRUE(t.via_tcp);
  EXPECT_EQ(t.outstanding, 4u);
  EXPECT_EQ(parse_workload("incast:32", t), source_kind::incast);
  EXPECT_EQ(t.incast_degree, 32u);
  EXPECT_EQ(parse_workload("mixed", t), source_kind::mixed);
  EXPECT_EQ(parse_workload("mixed:16:4:0.3", t), source_kind::mixed);
  EXPECT_EQ(t.incast_degree, 16u);
  EXPECT_EQ(t.outstanding, 4u);
  EXPECT_DOUBLE_EQ(t.incast_share, 0.3);
  EXPECT_THROW((void)parse_workload("mixed:1:2:0.5:9", t),
               std::invalid_argument);
  EXPECT_THROW((void)parse_workload("warp-drive", t), std::invalid_argument);
  // Malformed knobs must fail loudly, not fold to zero or truncate.
  EXPECT_THROW((void)parse_workload("paced:o.5", t), std::invalid_argument);
  EXPECT_THROW((void)parse_workload("closed-loop:8x", t),
               std::invalid_argument);
  EXPECT_THROW((void)parse_workload("incast:", t), std::invalid_argument);
  EXPECT_THROW((void)parse_workload("paced:inf", t), std::invalid_argument);
  EXPECT_THROW((void)parse_workload("paced:nan", t), std::invalid_argument);
  EXPECT_THROW((void)parse_workload("mixed:16:4:nan", t),
               std::invalid_argument);
  // Integer knobs are whole, unsigned and 32-bit: no sign, no blank, no
  // wrap-around.
  for (const char* bad :
       {"closed-loop:-1", "closed-loop:4294967296", "incast:4294967297",
        "closed-loop:+5", "closed-loop: 5", "mixed:8:-1"}) {
    EXPECT_THROW((void)parse_workload(bad, t), std::invalid_argument) << bad;
  }
  EXPECT_EQ(parse_workload("closed-loop:4294967295", t),
            source_kind::closed_loop);
  EXPECT_EQ(t.outstanding, 4294967295u);
  EXPECT_EQ(parse_workload("mixed:8:4294967295", t), source_kind::mixed);
  EXPECT_EQ(t.incast_degree, 8u);
  EXPECT_EQ(t.outstanding, 4294967295u);
}

}  // namespace
}  // namespace ups::traffic
