// Tests for the Virtual Clock scheduler and its correspondence with the
// §3.3 fairness slack heuristic.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/heuristics.h"
#include "core/lstf.h"
#include "sched/virtual_clock.h"

namespace ups::sched {
namespace {

net::packet_ptr pkt(std::uint64_t id, std::uint64_t flow,
                    std::uint32_t bytes = 1500) {
  net::packet_ptr p = net::make_packet();
  p->id = id;
  p->flow_id = flow;
  p->size_bytes = bytes;
  return p;
}

TEST(virtual_clock, single_flow_is_fifo) {
  virtual_clock q(sim::kGbps);
  for (std::uint64_t i = 1; i <= 5; ++i) q.enqueue(pkt(i, 9), 0);
  for (std::uint64_t i = 1; i <= 5; ++i) EXPECT_EQ(q.dequeue(0)->id, i);
}

TEST(virtual_clock, interleaves_backlogged_flows) {
  virtual_clock q(sim::kGbps);
  for (std::uint64_t i = 0; i < 3; ++i) q.enqueue(pkt(10 + i, 1), 0);
  for (std::uint64_t i = 0; i < 3; ++i) q.enqueue(pkt(20 + i, 2), 0);
  std::vector<std::uint64_t> flows;
  while (auto p = q.dequeue(0)) flows.push_back(p->flow_id);
  EXPECT_EQ(flows, (std::vector<std::uint64_t>{1, 2, 1, 2, 1, 2}));
}

TEST(virtual_clock, weighted_rates_shift_service) {
  virtual_clock q(sim::kGbps);
  q.set_flow_rate(1, 2 * sim::kGbps);  // flow 1 gets double allocation
  for (std::uint64_t i = 0; i < 4; ++i) q.enqueue(pkt(10 + i, 1), 0);
  for (std::uint64_t i = 0; i < 4; ++i) q.enqueue(pkt(20 + i, 2), 0);
  int flow1_in_first_six = 0;
  for (int i = 0; i < 6; ++i) {
    if (q.dequeue(0)->flow_id == 1) ++flow1_in_first_six;
  }
  EXPECT_EQ(flow1_in_first_six, 4);  // 2:1 service ratio
}

TEST(virtual_clock, idle_flow_clock_resyncs_to_now) {
  virtual_clock q(sim::kGbps);
  q.enqueue(pkt(1, 1), 0);
  (void)q.dequeue(0);
  // Long idle gap: the flow must not have banked credit (VC resyncs to
  // real time), nor be penalized beyond its new arrival time.
  const sim::time_ps later = sim::kSecond;
  q.enqueue(pkt(2, 1), later);
  auto p = q.dequeue(later);
  EXPECT_EQ(p->sched_key, later + 12 * sim::kMicrosecond);
}

TEST(virtual_clock, evicts_furthest_ahead_flow) {
  virtual_clock q(sim::kGbps);
  for (std::uint64_t i = 0; i < 5; ++i) q.enqueue(pkt(10 + i, 1), 0);
  q.enqueue(pkt(20, 2), 0);
  auto incoming = pkt(30, 3);
  auto victim = q.evict_for(*incoming, 0);
  ASSERT_NE(victim, nullptr);
  EXPECT_EQ(victim->id, 14u);  // flow 1's furthest-ahead packet
}

// §3.3 correspondence: on a single router fed by bursty senders, LSTF with
// the virtual-clock slack initialization serves packets in the same order
// as the Virtual Clock scheduler itself.
TEST(virtual_clock, lstf_with_fairness_slack_matches_vc_order) {
  const sim::bits_per_sec rate = sim::kGbps;
  virtual_clock vc_sched(rate);
  core::lstf lstf_sched(rate, false, false);
  core::fairness_slack vc_slack(rate);

  // Two flows, packets arriving back-to-back at t = 0 (maximal contention).
  std::uint64_t id = 1;
  for (int round = 0; round < 4; ++round) {
    for (const std::uint64_t flow : {1ull, 2ull}) {
      auto a = pkt(id, flow);
      auto b = pkt(id, flow);
      b->slack = vc_slack.next(flow, b->size_bytes, 0);
      vc_sched.enqueue(std::move(a), 0);
      lstf_sched.enqueue(std::move(b), 0);
      ++id;
    }
  }
  while (!vc_sched.empty()) {
    auto a = vc_sched.dequeue(0);
    auto b = lstf_sched.dequeue(0);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(a->id, b->id);
  }
}

}  // namespace
}  // namespace ups::sched
