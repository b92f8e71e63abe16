// Unit tests for LSTF: per-hop key semantics (Appendix D), slack rewriting,
// drop-highest-slack, FIFO+ equivalence under uniform slack, and resume-
// style preemption at a port.
#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "core/lstf.h"
#include "core/registry.h"
#include "inject_at.h"
#include "net/network.h"
#include "sched/fifo_plus.h"
#include "sim/simulator.h"
#include "topo/basic.h"

namespace ups::core {
namespace {

net::packet_ptr pkt(std::uint64_t id, sim::time_ps slack,
                    std::uint32_t bytes = 1500) {
  net::packet_ptr p = net::make_packet();
  p->id = id;
  p->flow_id = id;
  p->size_bytes = bytes;
  p->slack = slack;
  return p;
}

using testing::inject_at;

TEST(lstf_queue, least_slack_first) {
  lstf q(sim::kGbps);
  q.enqueue(pkt(1, 30 * sim::kMicrosecond), 0);
  q.enqueue(pkt(2, 10 * sim::kMicrosecond), 0);
  q.enqueue(pkt(3, 20 * sim::kMicrosecond), 0);
  std::vector<std::uint64_t> ids;
  while (auto p = q.dequeue(0)) ids.push_back(p->id);
  EXPECT_EQ(ids, (std::vector<std::uint64_t>{2, 3, 1}));
}

TEST(lstf_queue, waiting_erodes_slack_ordering) {
  // A packet that arrived earlier has effectively less slack by the same
  // margin: key = enqueue_time + slack (+T). A slack-20us packet enqueued at
  // t=0 beats a slack-10us packet enqueued at t=15us.
  lstf q(sim::kGbps);
  q.enqueue(pkt(1, 20 * sim::kMicrosecond), 0);
  q.enqueue(pkt(2, 10 * sim::kMicrosecond), 15 * sim::kMicrosecond);
  auto first = q.dequeue(0);
  EXPECT_EQ(first->id, 1u);
}

TEST(lstf_queue, last_bit_term_accounts_for_size) {
  // Appendix D: the remaining slack of the *last bit* includes +T(p, port).
  // A large packet with slightly smaller slack can rank behind a small one.
  lstf q(sim::kGbps);
  q.enqueue(pkt(1, 10 * sim::kMicrosecond, 1500), 0);  // key 10 + 12 = 22us
  q.enqueue(pkt(2, 11 * sim::kMicrosecond, 125), 0);   // key 11 + 1 = 12us
  EXPECT_EQ(q.dequeue(0)->id, 2u);
}

TEST(lstf_queue, drop_highest_slack_policy) {
  lstf q(sim::kGbps);
  q.enqueue(pkt(1, 100 * sim::kMicrosecond), 0);
  q.enqueue(pkt(2, 5 * sim::kMicrosecond), 0);
  auto incoming = pkt(3, 50 * sim::kMicrosecond);
  auto victim = q.evict_for(*incoming, 0);
  ASSERT_NE(victim, nullptr);
  EXPECT_EQ(victim->id, 1u);  // highest remaining slack dropped (§3)
  auto incoming2 = pkt(4, sim::kSecond);
  EXPECT_EQ(q.evict_for(*incoming2, 0), nullptr);  // incoming is worst
}

TEST(lstf_queue, preemption_rank_exposed) {
  lstf q(sim::kGbps, /*preemptive=*/true);
  EXPECT_TRUE(q.supports_preemption());
  EXPECT_FALSE(q.peek_rank().has_value());
  q.enqueue(pkt(1, 10 * sim::kMicrosecond), 0);
  ASSERT_TRUE(q.peek_rank().has_value());
  EXPECT_EQ(*q.peek_rank(), 22 * sim::kMicrosecond);
}

TEST(lstf_vs_fifo_plus, uniform_slack_orders_identically) {
  // §3.2: LSTF with equal initial slack is FIFO+. Feed both queues the same
  // arrival pattern with accumulated upstream waits and compare the order.
  lstf a(sim::kGbps);
  sched::fifo_plus b;
  const sim::time_ps uniform = sim::kSecond;
  struct arrival {
    std::uint64_t id;
    sim::time_ps at;
    sim::time_ps waited;
  };
  const std::vector<arrival> arrivals = {
      {1, 0, 0},
      {2, 5 * sim::kMicrosecond, 40 * sim::kMicrosecond},
      {3, 10 * sim::kMicrosecond, 2 * sim::kMicrosecond},
      {4, 12 * sim::kMicrosecond, 90 * sim::kMicrosecond},
      {5, 20 * sim::kMicrosecond, 0},
  };
  for (const auto& ar : arrivals) {
    auto pa = pkt(ar.id, uniform - ar.waited);  // LSTF slack after waiting
    auto pb = pkt(ar.id, 0);
    pb->queueing_delay = ar.waited;
    a.enqueue(std::move(pa), ar.at);
    b.enqueue(std::move(pb), ar.at);
  }
  for (int i = 0; i < 5; ++i) {
    auto pa = a.dequeue(0);
    auto pb = b.dequeue(0);
    ASSERT_NE(pa, nullptr);
    ASSERT_NE(pb, nullptr);
    EXPECT_EQ(pa->id, pb->id) << "diverged at position " << i;
  }
}

// Port-level preemption: a low-slack arrival pauses the in-service packet;
// the paused remainder finishes afterwards, and slack accounting charges
// the pause as waiting.
TEST(lstf_port, preemption_resumes_paused_packet) {
  sim::simulator sim;
  net::network net(sim);
  testing::deferred_calls calls(sim);  // inject_at's events
  auto topo = topo::line(2, sim::kGbps, 0);
  topo::populate(topo, net);
  net.set_buffer_bytes(0);
  net.set_preemption(true);
  net.set_scheduler_factory(
      make_factory(sched_kind::lstf_preemptive, 1, &net));
  net.build();

  std::vector<std::pair<std::uint64_t, sim::time_ps>> egress;
  net.hooks().on_egress = [&](const net::packet& p, sim::time_ps t) {
    egress.emplace_back(p.id, t);
  };

  const auto h0 = topo.host_id(0);
  const auto h1 = topo.host_id(1);
  // Inject directly at the ingress router to control arrival instants.
  auto big = pkt(1, 100 * sim::kMicrosecond, 1500);  // T = 12us per hop
  big->src_host = h0;
  big->dst_host = h1;
  net.route(h0, h1, big->path);
  inject_at(calls, net, std::move(big), 0);

  auto urgent = pkt(2, 0, 125);  // T = 1us, slack 0: must preempt
  urgent->src_host = h0;
  urgent->dst_host = h1;
  net.route(h0, h1, urgent->path);
  inject_at(calls, net, std::move(urgent), 6 * sim::kMicrosecond);

  sim.run();
  ASSERT_EQ(egress.size(), 2u);
  // The urgent packet exits first even though the big one started service.
  EXPECT_EQ(egress[0].first, 2u);
  EXPECT_EQ(egress[1].first, 1u);
  // Big packet: 6us served + paused 1us + 6us remaining at r0, then r1
  // transmits it after the urgent packet clears.
  EXPECT_GT(egress[1].second, 24 * sim::kMicrosecond);
}

TEST(lstf_port, no_preemption_for_equal_or_worse_rank) {
  sim::simulator sim;
  net::network net(sim);
  testing::deferred_calls calls(sim);  // inject_at's events
  auto topo = topo::line(2, sim::kGbps, 0);
  topo::populate(topo, net);
  net.set_buffer_bytes(0);
  net.set_preemption(true);
  net.set_scheduler_factory(
      make_factory(sched_kind::lstf_preemptive, 1, &net));
  net.build();

  std::uint64_t preemptions_before = 0;
  const auto h0 = topo.host_id(0);
  const auto h1 = topo.host_id(1);
  auto first = pkt(1, 0, 1500);
  first->src_host = h0;
  first->dst_host = h1;
  net.route(h0, h1, first->path);
  inject_at(calls, net, std::move(first), 0);
  auto second = pkt(2, sim::kSecond, 1500);  // plenty of slack: waits
  second->src_host = h0;
  second->dst_host = h1;
  net.route(h0, h1, second->path);
  inject_at(calls, net, std::move(second), sim::kMicrosecond);
  sim.run();
  for (const auto& pt : net.ports()) {
    preemptions_before += pt->stats().preemptions;
  }
  EXPECT_EQ(preemptions_before, 0u);
}

}  // namespace
}  // namespace ups::core
