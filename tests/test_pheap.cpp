// Tests for the pipelined-heap priority queue (§5) and the LSTF scheduler
// built on it.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <vector>

#include "core/lstf.h"
#include "core/lstf_pheap.h"
#include "core/pheap.h"
#include "sim/rng.h"

namespace ups::core {
namespace {

TEST(pheap, empty_behaviour) {
  pheap<int> h(4);
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.size(), 0u);
  EXPECT_THROW(static_cast<void>(h.pop_min()), std::logic_error);
  EXPECT_THROW(static_cast<void>(h.peek()), std::logic_error);
}

TEST(pheap, pops_in_rank_order) {
  pheap<int> h(5);
  for (const int k : {5, 1, 4, 1, 3, 9, 0, 7}) h.insert(k, k);
  std::vector<int> out;
  while (!h.empty()) out.push_back(h.pop_min());
  EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));
  EXPECT_EQ(out.size(), 8u);
}

TEST(pheap, fcfs_among_equal_ranks) {
  pheap<int> h(5);
  for (int i = 0; i < 10; ++i) h.insert(42, i);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(h.pop_min(), i);
}

TEST(pheap, grows_beyond_initial_capacity) {
  pheap<int> h(2);  // capacity 3
  for (int i = 0; i < 100; ++i) h.insert(100 - i, i);
  EXPECT_EQ(h.size(), 100u);
  EXPECT_GE(h.levels(), 7);
  int prev = -1;
  int count = 0;
  int last_rank = -1;
  while (!h.empty()) {
    const int rank_holder = h.pop_min();
    const int rank = 100 - rank_holder;
    EXPECT_GE(rank, last_rank);
    last_rank = rank;
    ++count;
    (void)prev;
  }
  EXPECT_EQ(count, 100);
}

TEST(pheap, randomized_against_reference_model) {
  sim::rng rng(31);
  pheap<std::uint64_t> h(4);
  std::multiset<std::pair<std::int64_t, std::uint64_t>> ref;
  std::uint64_t seq = 0;
  for (int op = 0; op < 20'000; ++op) {
    const bool insert = ref.empty() || rng.uniform() < 0.55;
    if (insert) {
      const auto rank = static_cast<std::int64_t>(rng.next_below(50));
      h.insert(rank, seq);
      ref.emplace(rank, seq);
      ++seq;
    } else {
      const auto got = h.pop_min();
      const auto expect = ref.begin();
      EXPECT_EQ(got, expect->second) << "op " << op;
      ref.erase(expect);
    }
    ASSERT_EQ(h.size(), ref.size());
  }
}

TEST(pheap, stage_ops_scale_with_levels_not_size) {
  // The pipelined-work claim: node visits per operation are bounded by the
  // number of levels (so a hardware pipeline sustains O(1) per op).
  pheap<int> h(14);  // fixed depth, no growth during the test
  sim::rng rng(7);
  for (int i = 0; i < 4'000; ++i) {
    h.insert(static_cast<std::int64_t>(rng.next_below(1'000'000)), i);
  }
  const auto before = h.stage_ops();
  const int ops = 2'000;
  for (int i = 0; i < ops; ++i) {
    h.insert(static_cast<std::int64_t>(rng.next_below(1'000'000)), i);
    (void)h.pop_min();
  }
  const double per_op =
      static_cast<double>(h.stage_ops() - before) / (2.0 * ops);
  EXPECT_LE(per_op, static_cast<double>(h.levels()));
}

TEST(pheap, move_only_payloads) {
  pheap<std::unique_ptr<int>> h(4);
  h.insert(2, std::make_unique<int>(20));
  h.insert(1, std::make_unique<int>(10));
  EXPECT_EQ(*h.pop_min(), 10);
  EXPECT_EQ(*h.pop_min(), 20);
}

net::packet_ptr pkt(std::uint64_t id, sim::time_ps slack,
                    std::uint32_t bytes = 1500) {
  net::packet_ptr p = net::make_packet();
  p->id = id;
  p->flow_id = id;
  p->size_bytes = bytes;
  p->slack = slack;
  return p;
}

TEST(lstf_pheap, orders_identically_to_map_backed_lstf) {
  lstf a(sim::kGbps, false, false);
  lstf_pheap b(sim::kGbps);
  sim::rng rng(13);
  sim::time_ps now = 0;
  for (std::uint64_t i = 1; i <= 500; ++i) {
    const auto slack =
        static_cast<sim::time_ps>(rng.next_below(40)) * sim::kMicrosecond;
    const auto size = 125u * (1 + static_cast<std::uint32_t>(
                                       rng.next_below(12)));
    a.enqueue(pkt(i, slack, size), now);
    b.enqueue(pkt(i, slack, size), now);
    if (rng.uniform() < 0.5) {
      auto pa = a.dequeue(now);
      auto pb = b.dequeue(now);
      ASSERT_EQ(pa->id, pb->id) << "diverged at step " << i;
    }
    now += static_cast<sim::time_ps>(rng.next_below(20)) * sim::kMicrosecond;
  }
  while (!a.empty()) {
    auto pa = a.dequeue(now);
    auto pb = b.dequeue(now);
    ASSERT_EQ(pa->id, pb->id);
  }
  EXPECT_TRUE(b.empty());
}

TEST(lstf_pheap, exposes_peek_rank) {
  lstf_pheap q(sim::kGbps);
  EXPECT_FALSE(q.peek_rank().has_value());
  q.enqueue(pkt(1, 10 * sim::kMicrosecond), 0);
  ASSERT_TRUE(q.peek_rank().has_value());
  EXPECT_EQ(*q.peek_rank(), 22 * sim::kMicrosecond);
}

// As in every rank scheduler, only a packet resumed after preemption
// (tx_remaining >= 0) keeps its sched_key; a stale key is recomputed.
TEST(lstf_pheap, keeps_the_cached_rank_only_of_a_resumed_packet) {
  lstf_pheap q(sim::kGbps);
  auto resumed = pkt(1, 50 * sim::kMicrosecond);
  resumed->sched_key = 5;
  resumed->tx_remaining = 300;
  auto stale = pkt(2, 10 * sim::kMicrosecond);
  stale->sched_key = 1;
  q.enqueue(std::move(resumed), 0);
  q.enqueue(std::move(stale), 0);
  ASSERT_TRUE(q.peek_rank().has_value());
  EXPECT_EQ(*q.peek_rank(), 5);
  EXPECT_EQ(q.dequeue(0)->id, 1u);
  EXPECT_EQ(q.dequeue(0)->sched_key, 22 * sim::kMicrosecond);
}

TEST(lstf_pheap, byte_accounting) {
  lstf_pheap q(sim::kGbps);
  q.enqueue(pkt(1, 0, 1000), 0);
  q.enqueue(pkt(2, 0, 500), 0);
  EXPECT_EQ(q.bytes(), 1500u);
  // Equal slack: the smaller packet's last bit ranks earlier (+T term), so
  // the 500 B packet is served first and 1000 B remain queued.
  auto p = q.dequeue(0);
  EXPECT_EQ(p->id, 2u);
  EXPECT_EQ(q.bytes(), 1000u);
  EXPECT_EQ(q.packets(), 1u);
}

}  // namespace
}  // namespace ups::core
