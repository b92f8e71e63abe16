// Unit tests for the baseline scheduling policies as pure queue disciplines.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "sched/fifo.h"
#include "sched/fifo_plus.h"
#include "sched/lifo.h"
#include "sched/pfabric.h"
#include "sched/random_order.h"
#include "sched/sjf.h"
#include "sched/static_priority.h"
#include "sim/rng.h"

namespace ups::sched {
namespace {

net::packet_ptr pkt(std::uint64_t id, std::uint32_t bytes = 1500) {
  net::packet_ptr p = net::make_packet();
  p->id = id;
  p->flow_id = id;
  p->size_bytes = bytes;
  return p;
}

std::vector<std::uint64_t> drain(net::scheduler& s) {
  std::vector<std::uint64_t> ids;
  while (auto p = s.dequeue(0)) ids.push_back(p->id);
  return ids;
}

TEST(fifo, serves_in_arrival_order) {
  fifo q;
  for (std::uint64_t i = 1; i <= 5; ++i) q.enqueue(pkt(i), 0);
  EXPECT_EQ(q.packets(), 5u);
  EXPECT_EQ(q.bytes(), 5u * 1500);
  EXPECT_EQ(drain(q), (std::vector<std::uint64_t>{1, 2, 3, 4, 5}));
  EXPECT_TRUE(q.empty());
}

TEST(lifo, serves_in_reverse_arrival_order) {
  lifo q;
  for (std::uint64_t i = 1; i <= 5; ++i) q.enqueue(pkt(i), 0);
  EXPECT_EQ(drain(q), (std::vector<std::uint64_t>{5, 4, 3, 2, 1}));
}

TEST(random_order, is_a_permutation_and_deterministic_per_seed) {
  random_order q1(99, 0x9000);
  random_order q2(99, 0x9000);
  for (std::uint64_t i = 1; i <= 32; ++i) {
    q1.enqueue(pkt(i), 0);
    q2.enqueue(pkt(i), 0);
  }
  auto a = drain(q1);
  const auto b = drain(q2);
  EXPECT_EQ(a, b);  // determinism
  std::sort(a.begin(), a.end());
  for (std::uint64_t i = 1; i <= 32; ++i) EXPECT_EQ(a[i - 1], i);
}

TEST(random_order, different_seeds_and_streams_differ) {
  random_order q1(1, 0x9000);
  random_order q2(2, 0x9000);
  random_order q3(1, 0x9001);
  for (std::uint64_t i = 1; i <= 32; ++i) {
    q1.enqueue(pkt(i), 0);
    q2.enqueue(pkt(i), 0);
    q3.enqueue(pkt(i), 0);
  }
  const auto a = drain(q1);
  EXPECT_NE(a, drain(q2));
  EXPECT_NE(a, drain(q3));
}

TEST(random_order, serves_the_derived_stream_whenever_it_is_first_drawn) {
  // Enqueue draws nothing, so a generator built on the first dequeue gives
  // the order of one built up front: a uniform pick among the queued
  // packets, swapped with the last, per dequeue.
  random_order q(7, 0x9000 + 12);
  sim::rng model_rng = sim::rng::derive(7, 0x9000 + 12);
  std::vector<std::uint64_t> model;
  std::vector<std::uint64_t> expected;
  std::vector<std::uint64_t> served;
  std::uint64_t next_id = 1;
  for (int round = 0; round < 8; ++round) {
    for (int k = 0; k < 5; ++k) {
      q.enqueue(pkt(next_id), 0);
      model.push_back(next_id++);
    }
    for (int k = 0; k < 3; ++k) {
      const auto i = model_rng.next_below(model.size());
      std::swap(model[i], model.back());
      expected.push_back(model.back());
      model.pop_back();
      served.push_back(q.dequeue(0)->id);
    }
  }
  EXPECT_EQ(served, expected);
}

TEST(static_priority, lower_value_first_fcfs_ties) {
  static_priority q;
  auto a = pkt(1);
  a->priority = 5;
  auto b = pkt(2);
  b->priority = 1;
  auto c = pkt(3);
  c->priority = 5;
  q.enqueue(std::move(a), 0);
  q.enqueue(std::move(b), 1);
  q.enqueue(std::move(c), 2);
  EXPECT_EQ(drain(q), (std::vector<std::uint64_t>{2, 1, 3}));
}

TEST(static_priority, evicts_highest_rank_when_drop_enabled) {
  static_priority q(/*drop_highest_rank=*/true);
  for (std::uint64_t i = 1; i <= 3; ++i) {
    auto p = pkt(i);
    p->priority = static_cast<std::int64_t>(i * 10);
    q.enqueue(std::move(p), 0);
  }
  auto incoming = pkt(9);
  incoming->priority = 15;  // better than 20 and 30
  auto victim = q.evict_for(*incoming, 0);
  ASSERT_NE(victim, nullptr);
  EXPECT_EQ(victim->id, 3u);  // priority 30 is worst
}

TEST(static_priority, incoming_worst_is_not_admitted) {
  static_priority q(/*drop_highest_rank=*/true);
  auto p = pkt(1);
  p->priority = 10;
  q.enqueue(std::move(p), 0);
  auto incoming = pkt(2);
  incoming->priority = 99;
  EXPECT_EQ(q.evict_for(*incoming, 0), nullptr);
}

// A packet preempted mid-transmission comes back with tx_remaining >= 0
// and keeps the rank it got on arrival; any other packet is ranked afresh,
// whatever sched_key an earlier port left in it. No port id is needed.
TEST(rank_scheduler, keeps_the_cached_rank_only_of_a_resumed_packet) {
  static_priority q;
  auto resumed = pkt(1);
  resumed->priority = 50;
  resumed->sched_key = 5;  // its rank on arrival at this port
  resumed->tx_remaining = 300;
  auto stale = pkt(2);
  stale->priority = 10;
  stale->sched_key = 1;  // left by an upstream port
  auto fresh = pkt(3);
  fresh->priority = 7;
  q.enqueue(std::move(resumed), 0);
  q.enqueue(std::move(stale), 0);
  q.enqueue(std::move(fresh), 0);
  ASSERT_TRUE(q.peek_rank().has_value());
  EXPECT_EQ(*q.peek_rank(), 5);
  EXPECT_EQ(drain(q), (std::vector<std::uint64_t>{1, 3, 2}));
}

TEST(sjf, orders_by_flow_size) {
  sjf q;
  auto mk = [&](std::uint64_t id, std::uint64_t fs) {
    auto p = pkt(id);
    p->flow_size_bytes = fs;
    return p;
  };
  q.enqueue(mk(1, 100'000), 0);
  q.enqueue(mk(2, 1'460), 0);
  q.enqueue(mk(3, 50'000), 0);
  EXPECT_EQ(drain(q), (std::vector<std::uint64_t>{2, 3, 1}));
}

TEST(fifo_plus, prioritizes_packets_that_waited_upstream) {
  fifo_plus q;
  auto fresh = pkt(1);
  fresh->queueing_delay = 0;
  auto waited = pkt(2);
  waited->queueing_delay = 700;  // accumulated upstream queueing
  // fresh arrives slightly earlier but the waited packet wins.
  q.enqueue(std::move(fresh), 1000);
  q.enqueue(std::move(waited), 1500);
  EXPECT_EQ(drain(q), (std::vector<std::uint64_t>{2, 1}));
}

TEST(fifo_plus, equal_wait_degrades_to_fifo) {
  fifo_plus q;
  q.enqueue(pkt(1), 100);
  q.enqueue(pkt(2), 200);
  q.enqueue(pkt(3), 300);
  EXPECT_EQ(drain(q), (std::vector<std::uint64_t>{1, 2, 3}));
}

TEST(pfabric, srpt_mode_serves_flow_with_least_remaining) {
  pfabric q(pfabric_mode::srpt);
  auto mk = [&](std::uint64_t id, std::uint64_t flow, std::uint64_t rem) {
    auto p = pkt(id);
    p->flow_id = flow;
    p->remaining_flow_bytes = rem;
    return p;
  };
  q.enqueue(mk(1, 100, 90'000), 0);
  q.enqueue(mk(2, 200, 1'460), 0);
  q.enqueue(mk(3, 100, 90'000), 0);
  EXPECT_EQ(drain(q), (std::vector<std::uint64_t>{2, 1, 3}));
}

TEST(pfabric, starvation_prevention_serves_earliest_of_best_flow) {
  pfabric q(pfabric_mode::srpt);
  auto mk = [&](std::uint64_t id, std::uint64_t flow, std::uint64_t rem) {
    auto p = pkt(id);
    p->flow_id = flow;
    p->remaining_flow_bytes = rem;
    return p;
  };
  // Flow 7's later packet has the best (smallest) remaining, but its
  // earliest queued packet must be served first.
  q.enqueue(mk(1, 7, 50'000), 0);
  q.enqueue(mk(2, 9, 20'000), 0);
  q.enqueue(mk(3, 7, 1'460), 0);
  auto first = q.dequeue(0);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->id, 1u);  // flow 7 selected by packet 3, served in order
}

TEST(pfabric, evicts_worst_rank) {
  pfabric q(pfabric_mode::srpt);
  auto mk = [&](std::uint64_t id, std::uint64_t flow, std::uint64_t rem) {
    auto p = pkt(id);
    p->flow_id = flow;
    p->remaining_flow_bytes = rem;
    return p;
  };
  q.enqueue(mk(1, 1, 10'000), 0);
  q.enqueue(mk(2, 2, 90'000), 0);
  auto incoming = mk(3, 3, 5'000);
  auto victim = q.evict_for(*incoming, 0);
  ASSERT_NE(victim, nullptr);
  EXPECT_EQ(victim->id, 2u);
  EXPECT_EQ(q.packets(), 1u);
}

TEST(pfabric, byte_accounting) {
  pfabric q(pfabric_mode::sjf);
  auto a = pkt(1, 1000);
  a->flow_size_bytes = 10;
  auto b = pkt(2, 500);
  b->flow_size_bytes = 20;
  q.enqueue(std::move(a), 0);
  q.enqueue(std::move(b), 0);
  EXPECT_EQ(q.bytes(), 1500u);
  (void)q.dequeue(0);
  EXPECT_EQ(q.bytes(), 500u);
}

}  // namespace
}  // namespace ups::sched
