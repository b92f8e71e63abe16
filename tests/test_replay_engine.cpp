// Unit/integration tests for the replay engine itself: header
// initialization, packet conservation, threshold accounting, and simple
// known-outcome replays.
#include <gtest/gtest.h>

#include <memory>

#include "core/registry.h"
#include "core/replay.h"
#include "exp/replay_experiment.h"
#include "exp/scenario.h"
#include "net/network.h"
#include "net/trace.h"
#include "replay_test_util.h"
#include "sim/simulator.h"
#include "topo/basic.h"

namespace ups::core {
namespace {

using ups::testing::record_run;
using ups::testing::recorded;

replay_result do_replay(const recorded& r, replay_mode mode,
                        sim::time_ps threshold = 0) {
  replay_options opt;
  opt.mode = mode;
  opt.threshold_T = threshold;
  opt.keep_outcomes = true;
  const auto& topology = r.topology;
  return replay_trace(
      r.trace, [&topology](net::network& n) { topo::populate(topology, n); },
      opt);
}

TEST(replay_engine, conserves_every_packet) {
  const auto r = record_run(topo::dumbbell(4, 10 * sim::kGbps, sim::kGbps),
                            sched_kind::random, 3'000);
  const auto res = do_replay(r, replay_mode::lstf);
  EXPECT_EQ(res.total, r.trace.packets.size());
  EXPECT_EQ(res.outcomes.size(), r.trace.packets.size());
}

TEST(replay_engine, uncongested_schedule_replays_exactly) {
  // At 1% utilization packets rarely queue; the original schedule is almost
  // everywhere tmin-tight and the replay must reproduce it exactly.
  const auto r = record_run(topo::dumbbell(2, 10 * sim::kGbps, sim::kGbps),
                            sched_kind::fifo, 500, 0.01);
  const auto res = do_replay(r, replay_mode::lstf);
  EXPECT_EQ(res.overdue, 0u);
  for (const auto& o : res.outcomes) {
    EXPECT_LE(o.replay_out, o.original_out);
  }
}

TEST(replay_engine, preemptive_lstf_perfect_on_single_congestion_point) {
  // Dumbbell: the only congestion point is the bottleneck port (host NICs
  // are bypassed by ingress injection; egress ports are fed serialized
  // traffic at or below their own rate). Appendix G: LSTF replays <= 2
  // congestion points perfectly.
  const auto r = record_run(topo::dumbbell(6, 10 * sim::kGbps, sim::kGbps),
                            sched_kind::random, 8'000, 0.8);
  const auto res = do_replay(r, replay_mode::lstf_preemptive);
  EXPECT_EQ(res.overdue, 0u);
}

TEST(replay_engine, edf_matches_lstf_exactly) {
  const auto r = record_run(topo::dumbbell(4, 10 * sim::kGbps, sim::kGbps),
                            sched_kind::random, 4'000, 0.7);
  const auto a = do_replay(r, replay_mode::lstf);
  const auto b = do_replay(r, replay_mode::edf);
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    EXPECT_EQ(a.outcomes[i].replay_out, b.outcomes[i].replay_out);
  }
}

TEST(replay_engine, pheap_backed_lstf_matches_map_backed_exactly) {
  // §5: the pipelined-heap implementation is a drop-in replacement.
  const auto r = record_run(topo::dumbbell(4, 10 * sim::kGbps, sim::kGbps),
                            sched_kind::random, 4'000, 0.7);
  const auto a = do_replay(r, replay_mode::lstf);
  const auto b = do_replay(r, replay_mode::lstf_pheap);
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    EXPECT_EQ(a.outcomes[i].replay_out, b.outcomes[i].replay_out);
    EXPECT_EQ(a.outcomes[i].replay_queueing, b.outcomes[i].replay_queueing);
  }
}

TEST(replay_engine, quantized_omniscient_degrades_gracefully) {
  const auto r = record_run(topo::dumbbell(4, 10 * sim::kGbps, sim::kGbps),
                            sched_kind::random, 4'000, 0.8, /*hop_times=*/true);
  replay_options opt;
  opt.mode = replay_mode::omniscient;
  opt.keep_outcomes = false;
  const auto& topology = r.topology;
  const auto builder = [&topology](net::network& n) {
    topo::populate(topology, n);
  };
  opt.omniscient_quantum = 0;
  const auto exact = replay_trace(r.trace, builder, opt);
  EXPECT_EQ(exact.overdue, 0u);
  // Sub-transmission-time quantization cannot change any ordering between
  // packets whose original service start times differ by >= one slot.
  opt.omniscient_quantum = sim::kNanosecond;
  const auto fine = replay_trace(r.trace, builder, opt);
  EXPECT_EQ(fine.overdue, 0u);
  // Very coarse quantization collapses most ranks and must hurt.
  opt.omniscient_quantum = 100 * sim::kMillisecond;
  const auto coarse = replay_trace(r.trace, builder, opt);
  EXPECT_GE(coarse.overdue, fine.overdue);
}

TEST(replay_engine, omniscient_requires_hop_times) {
  const auto r = record_run(topo::dumbbell(2, 10 * sim::kGbps, sim::kGbps),
                            sched_kind::fifo, 200, 0.3, /*hop_times=*/false);
  EXPECT_THROW(do_replay(r, replay_mode::omniscient), std::invalid_argument);
}

TEST(replay_engine, omniscient_perfect_with_hop_times) {
  const auto r = record_run(topo::dumbbell(4, 10 * sim::kGbps, sim::kGbps),
                            sched_kind::random, 4'000, 0.8, /*hop_times=*/true);
  const auto res = do_replay(r, replay_mode::omniscient);
  EXPECT_EQ(res.overdue, 0u);
}

TEST(replay_engine, threshold_accounting_monotone) {
  const auto r = record_run(topo::dumbbell(6, 10 * sim::kGbps, sim::kGbps),
                            sched_kind::lifo, 6'000, 0.8);
  const auto strict = do_replay(r, replay_mode::priority_output_time, 0);
  const auto loose = do_replay(r, replay_mode::priority_output_time,
                               12 * sim::kMicrosecond);
  EXPECT_GE(strict.overdue, strict.overdue_beyond_T);
  EXPECT_GE(loose.overdue, loose.overdue_beyond_T);
  EXPECT_GE(strict.overdue_beyond_T, loose.overdue_beyond_T);
  EXPECT_EQ(strict.overdue, loose.overdue);  // threshold only affects >T
}

TEST(replay_engine, fractions_are_consistent) {
  const auto r = record_run(topo::dumbbell(4, 10 * sim::kGbps, sim::kGbps),
                            sched_kind::lifo, 3'000, 0.8);
  const auto res = do_replay(r, replay_mode::lstf, 12 * sim::kMicrosecond);
  EXPECT_NEAR(res.frac_overdue(),
              static_cast<double>(res.overdue) / res.total, 1e-12);
  EXPECT_LE(res.frac_overdue_beyond_T(), res.frac_overdue());
}

TEST(replay_engine, lstf_slack_initialization_formula) {
  // Manually verify slack(p) = o(p) - i(p) - tmin(p) for a recorded packet
  // by reconstructing tmin on a fresh network.
  const auto r = record_run(topo::dumbbell(2, 10 * sim::kGbps, sim::kGbps),
                            sched_kind::fifo, 300, 0.5);
  sim::simulator sim;
  net::network net(sim);
  topo::populate(r.topology, net);
  net.set_scheduler_factory(make_factory(sched_kind::fifo, 1));
  net.build();
  for (const auto& rec : r.trace.packets) {
    net::packet probe;
    probe.size_bytes = rec.size_bytes;
    probe.dst_host = rec.dst_host;
    probe.path = rec.path;
    const auto tmin = net.tmin(probe, 0);
    const auto slack = rec.egress_time - rec.ingress_time - tmin;
    EXPECT_GE(slack, 0) << "viable schedules never have negative slack";
  }
}

TEST(replay_engine, streaming_preserves_injection_order_on_rank_ties) {
  // Regression: an injection landing at the exact instant a forwarded
  // packet arrives at the same router, with equal ranks (EDF deadlines
  // here). The injection runs in the kernel's early phase, before every
  // forwarded arrival at that instant, so the injected packet enqueues
  // first and wins the FCFS tie-break even though the forwarded arrival's
  // event was scheduled earlier.
  const auto delay = sim::kMicrosecond;
  recorded r;
  r.topology = topo::parking_lot(3, sim::kGbps, delay);

  net::packet_record b;  // forwarded packet: crosses r1 mid-path
  b.id = 1;
  b.flow_id = 1;
  b.size_bytes = 1500;
  b.src_host = r.topology.host_id(0);
  b.dst_host = r.topology.host_id(2);
  b.path = {0, 1, 2};
  b.ingress_time = 0;
  b.egress_time = sim::kMillisecond;  // rank tie with `a` under EDF

  net::packet_record a;  // injected at r1 exactly when b arrives there
  a.id = 2;
  a.flow_id = 2;
  a.size_bytes = 1500;
  a.src_host = r.topology.host_id(1);
  a.dst_host = r.topology.host_id(2);
  a.path = {1, 2};
  a.ingress_time = sim::transmission_time(1500, sim::kGbps) + delay;
  a.egress_time = sim::kMillisecond;

  r.trace.packets = {b, a};
  for (const auto mode :
       {replay_mode::edf, replay_mode::priority_output_time}) {
    const auto streamed = do_replay(r, mode);
    // The injected packet wins the tie at the shared port: it transmits
    // first and egresses earlier.
    ASSERT_EQ(streamed.outcomes[0].id, 1u);
    ASSERT_EQ(streamed.outcomes[1].id, 2u);
    EXPECT_LT(streamed.outcomes[1].replay_out, streamed.outcomes[0].replay_out);
  }
}

TEST(replay_engine, streaming_injection_cuts_peak_residency) {
  // Long trace over a short-RTT topology: only the in-flight window is ever
  // resident, far below the O(trace) of materializing every packet first.
  const auto r = record_run(topo::dumbbell(4, 10 * sim::kGbps, sim::kGbps),
                            sched_kind::fifo, 6'000, 0.5);
  const auto streamed = do_replay(r, replay_mode::lstf);
  EXPECT_EQ(streamed.total, r.trace.packets.size());
  EXPECT_LT(streamed.peak_pool_packets, r.trace.packets.size() / 4);
  EXPECT_LT(streamed.peak_event_slots, r.trace.packets.size() / 4);
}

TEST(replay_engine, wires_hold_one_event_per_port_not_per_packet) {
  // A wire is a FIFO with one pending kernel event, for its head. On I2's
  // millisecond links thousands of packets are in flight at once, yet the
  // kernel's heap stays near the port count instead of growing with them.
  exp::scenario sc;
  sc.topo = exp::topo_kind::i2_default;
  sc.packet_budget = 5'000;
  const exp::original_run orig = exp::run_original(sc);
  const std::size_t ports =
      2 * (orig.topology.core_links.size() + orig.topology.hosts.size());
  const auto res = exp::run_replay(orig, replay_mode::lstf);
  EXPECT_EQ(res.total + res.dropped, orig.trace.packets.size());
  EXPECT_GT(res.peak_pool_packets, 4'000u);
  EXPECT_LT(res.peak_event_slots, 2 * ports);
}

TEST(replay_engine, sources_hold_one_event_each_not_per_flow) {
  // A traffic source holds one pending event, for its earliest start not
  // yet run. With wires holding one per port, a recording run's kernel
  // heap stays below the port count instead of growing with the flows
  // waiting to start.
  for (const auto kind :
       {traffic::source_kind::open_loop, traffic::source_kind::closed_loop,
        traffic::source_kind::paced}) {
    exp::scenario sc;
    sc.topo = exp::topo_kind::i2_default;
    sc.packet_budget = 5'000;
    sc.workload_kind = kind;
    const exp::original_run orig = exp::run_original(sc);
    const std::size_t ports =
        2 * (orig.topology.core_links.size() + orig.topology.hosts.size());
    EXPECT_LT(orig.peak_event_slots, ports) << traffic::to_string(kind);
  }
}

TEST(replay_engine, replay_mode_names) {
  EXPECT_STREQ(to_string(replay_mode::lstf), "LSTF");
  EXPECT_STREQ(to_string(replay_mode::lstf_preemptive), "LSTF(preempt)");
  EXPECT_STREQ(to_string(replay_mode::edf), "EDF");
  EXPECT_STREQ(to_string(replay_mode::priority_output_time),
               "Priority(o(p))");
  EXPECT_STREQ(to_string(replay_mode::omniscient), "Omniscient");
}

}  // namespace
}  // namespace ups::core
