// Tests for the simplified TCP Reno transport.
#include <gtest/gtest.h>

#include <stdexcept>

#include "core/registry.h"
#include "core/replay.h"
#include "exp/replay_experiment.h"
#include "exp/scenario.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "topo/basic.h"
#include "traffic/source.h"
#include "transport/tcp.h"

namespace ups::transport {
namespace {

struct fixture {
  sim::simulator sim;
  net::network net{sim};
  topo::topology topo;

  explicit fixture(topo::topology t,
                   core::sched_kind k = core::sched_kind::fifo,
                   std::int64_t buffer = 0)
      : topo(std::move(t)) {
    topo::populate(topo, net);
    net.set_buffer_bytes(buffer);
    net.set_scheduler_factory(core::make_factory(k, 1, &net));
    net.build();
  }
};

TEST(tcp, single_flow_completes_on_clean_path) {
  fixture f(topo::line(2, sim::kGbps, sim::kMicrosecond));
  tcp_manager tcp(f.net, {});
  tcp.start_flow(1, f.topo.host_id(0), f.topo.host_id(1), 100'000, 0);
  f.sim.run();
  ASSERT_EQ(tcp.completions().size(), 1u);
  EXPECT_EQ(tcp.flows_in_progress(), 0u);
  const auto& c = tcp.completions().front();
  EXPECT_EQ(c.size_bytes, 100'000u);
  EXPECT_GT(c.fct(), 0);
  EXPECT_EQ(tcp.delivered_bytes(1), 100'000u);
}

TEST(tcp, duplicate_flow_id_throws_before_scheduling) {
  // A second start under a known id used to destroy the new flow inside
  // flows_.emplace while its start event still pointed at it.
  fixture f(topo::line(2, sim::kGbps, sim::kMicrosecond));
  tcp_manager tcp(f.net, {});
  tcp.start_flow(1, f.topo.host_id(0), f.topo.host_id(1), 10'000, 0);
  const std::size_t pending = f.sim.pending();
  EXPECT_THROW(
      tcp.start_flow(1, f.topo.host_id(1), f.topo.host_id(0), 20'000, 0),
      std::invalid_argument);
  EXPECT_EQ(f.sim.pending(), pending);
  EXPECT_EQ(tcp.flows_in_progress(), 1u);
}

TEST(tcp, fct_close_to_ideal_for_bulk_transfer) {
  // 1 MB over a 1 Gbps path: ideal serialization is ~8.2 ms; with slow
  // start and ACK clocking the FCT must be within a small multiple.
  fixture f(topo::line(2, sim::kGbps, 10 * sim::kMicrosecond));
  tcp_manager tcp(f.net, {});
  tcp.start_flow(1, f.topo.host_id(0), f.topo.host_id(1), 1'000'000, 0);
  f.sim.run();
  ASSERT_EQ(tcp.completions().size(), 1u);
  const double fct_ms = sim::to_millis(tcp.completions().front().fct());
  EXPECT_GT(fct_ms, 8.0);
  EXPECT_LT(fct_ms, 25.0);
}

TEST(tcp, recovers_from_drops_in_tiny_buffer) {
  // 15 KB of buffer on a 1 Gbps bottleneck forces slow-start overshoot
  // drops; the flow must still complete via fast retransmit / RTO.
  fixture f(topo::dumbbell(1, 10 * sim::kGbps, sim::kGbps),
            core::sched_kind::fifo, 15'000);
  tcp_manager tcp(f.net, {});
  tcp.start_flow(1, f.topo.host_id(0), f.topo.host_id(1), 400'000, 0);
  f.sim.run();
  ASSERT_EQ(tcp.completions().size(), 1u);
  EXPECT_GT(f.net.stats().dropped, 0u) << "test requires actual losses";
  EXPECT_EQ(tcp.delivered_bytes(1), 400'000u);
}

TEST(tcp, two_flows_share_and_both_finish) {
  fixture f(topo::dumbbell(2, 10 * sim::kGbps, sim::kGbps),
            core::sched_kind::fifo, 100'000);
  tcp_manager tcp(f.net, {});
  tcp.start_flow(1, f.topo.host_id(0), f.topo.host_id(2), 300'000, 0);
  tcp.start_flow(2, f.topo.host_id(1), f.topo.host_id(3), 300'000, 0);
  f.sim.run();
  EXPECT_EQ(tcp.completions().size(), 2u);
}

TEST(tcp, stamper_applied_to_data_packets) {
  fixture f(topo::line(2, sim::kGbps, sim::kMicrosecond));
  tcp_manager tcp(f.net, {});
  int stamped = 0;
  tcp.start_flow(1, f.topo.host_id(0), f.topo.host_id(1), 29'200, 0,
                 [&stamped](net::packet& p) {
                   EXPECT_EQ(p.kind, net::packet_kind::data);
                   ++stamped;
                 });
  f.sim.run();
  EXPECT_GE(stamped, 20);  // 20 segments minimum (29200 = 20 x 1460)
}

TEST(tcp, remaining_flow_bytes_decreases_across_emissions) {
  fixture f(topo::line(2, sim::kGbps, sim::kMicrosecond));
  tcp_manager tcp(f.net, {});
  std::vector<std::uint64_t> remaining;
  tcp.start_flow(1, f.topo.host_id(0), f.topo.host_id(1), 146'000, 0,
                 [&remaining](net::packet& p) {
                   remaining.push_back(p.remaining_flow_bytes);
                 });
  f.sim.run();
  ASSERT_GT(remaining.size(), 10u);
  EXPECT_EQ(remaining.front(), 146'000u);
  // SRPT-style remaining decreases as ACKs advance (not strictly monotone
  // per packet within a burst, but the last emission has far less left).
  EXPECT_LT(remaining.back(), remaining.front());
}

TEST(tcp, long_lived_flow_throughput_tracks_link_rate) {
  fixture f(topo::line(2, sim::kGbps, 10 * sim::kMicrosecond));
  tcp_config cfg;
  cfg.max_cwnd_pkts = 500;
  tcp_manager tcp(f.net, cfg);
  tcp.start_flow(1, f.topo.host_id(0), f.topo.host_id(1), 1ull << 40, 0);
  f.sim.run_until(20 * sim::kMillisecond);
  const double delivered = static_cast<double>(tcp.delivered_bytes(1));
  const double ideal = 1e9 / 8.0 * 0.020;  // bytes in 20 ms at 1 Gbps
  EXPECT_GT(delivered / ideal, 0.7);
  EXPECT_LE(delivered / ideal, 1.01);
}

TEST(tcp, many_parallel_flows_all_complete) {
  fixture f(topo::dumbbell(8, 10 * sim::kGbps, sim::kGbps),
            core::sched_kind::fq, 500'000);
  tcp_manager tcp(f.net, {});
  for (int i = 0; i < 16; ++i) {
    tcp.start_flow(100 + i, f.topo.host_id(i % 8),
                   f.topo.host_id(8 + (i + 3) % 8), 50'000 + 10'000 * i,
                   i * sim::kMicrosecond);
  }
  f.sim.run();
  EXPECT_EQ(tcp.completions().size(), 16u);
  EXPECT_EQ(tcp.flows_in_progress(), 0u);
}

TEST(tcp, acks_record_hop_times_for_omniscient_replay) {
  // A TCP original recorded with hop times records them for ACKs too, so
  // omniscient replay accepts it and, by Appendix B, replays the recorded
  // (viable) schedule with no packet overdue.
  exp::scenario sc;
  sc.topo = exp::topo_kind::i2_default;
  sc.packet_budget = 3'000;
  sc.record_hops = true;
  sc.workload_kind =
      traffic::parse_workload("closed-loop-tcp", sc.workload_spec);
  const exp::original_run orig = exp::run_original(sc);
  for (const auto& r : orig.trace.packets) {
    ASSERT_EQ(r.hop_departs.size(), r.path.size()) << "record " << r.id;
  }
  const auto res = exp::run_replay(orig, core::replay_mode::omniscient);
  EXPECT_EQ(res.total, orig.trace.packets.size());
  EXPECT_EQ(res.overdue, 0u);
}

}  // namespace
}  // namespace ups::transport
