// Unit tests for the ordered packet container shared by all rank-based
// schedulers.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <utility>

#include "net/packet_pool.h"
#include "sched/keyed_queue.h"

namespace ups::sched {
namespace {

net::packet_ptr pkt(std::uint64_t id, std::uint32_t bytes = 100) {
  net::packet_ptr p = net::make_packet();
  p->id = id;
  p->size_bytes = bytes;
  return p;
}

TEST(keyed_queue, empty_state) {
  keyed_queue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.bytes(), 0u);
  EXPECT_EQ(q.pop_min(), nullptr);
  EXPECT_EQ(q.pop_max(), nullptr);
  EXPECT_FALSE(q.min_key().has_value());
  EXPECT_FALSE(q.max_key().has_value());
}

TEST(keyed_queue, min_max_extraction) {
  keyed_queue q;
  q.insert(30, pkt(3));
  q.insert(10, pkt(1));
  q.insert(20, pkt(2));
  EXPECT_EQ(*q.min_key(), 10);
  EXPECT_EQ(*q.max_key(), 30);
  EXPECT_EQ(q.pop_min()->id, 1u);
  EXPECT_EQ(q.pop_max()->id, 3u);
  EXPECT_EQ(q.pop_min()->id, 2u);
  EXPECT_TRUE(q.empty());
}

TEST(keyed_queue, fcfs_within_equal_keys) {
  keyed_queue q;
  for (std::uint64_t i = 1; i <= 8; ++i) q.insert(7, pkt(i));
  for (std::uint64_t i = 1; i <= 8; ++i) EXPECT_EQ(q.pop_min()->id, i);
}

TEST(keyed_queue, pop_max_takes_latest_among_equal_keys) {
  // Among equal keys, pop_max removes the most recent arrival — the right
  // victim for drop-highest-rank (keep the oldest committed work).
  keyed_queue q;
  q.insert(5, pkt(1));
  q.insert(5, pkt(2));
  EXPECT_EQ(q.pop_max()->id, 2u);
}

TEST(keyed_queue, byte_accounting_tracks_both_ends) {
  keyed_queue q;
  q.insert(1, pkt(1, 1000));
  q.insert(2, pkt(2, 500));
  q.insert(3, pkt(3, 250));
  EXPECT_EQ(q.bytes(), 1750u);
  (void)q.pop_min();
  EXPECT_EQ(q.bytes(), 750u);
  (void)q.pop_max();
  EXPECT_EQ(q.bytes(), 500u);
}

TEST(keyed_queue, negative_keys_order_correctly) {
  keyed_queue q;
  q.insert(-100, pkt(1));
  q.insert(0, pkt(2));
  q.insert(-200, pkt(3));
  EXPECT_EQ(q.pop_min()->id, 3u);
  EXPECT_EQ(q.pop_min()->id, 1u);
  EXPECT_EQ(q.pop_min()->id, 2u);
}

TEST(keyed_queue, fuzz_matches_ordered_map_reference) {
  // The freelist-backed queue must preserve the exact (key, arrival-uid)
  // total order the original plain-map backing provided — replay
  // determinism depends on it. Mirror every operation against an
  // ordered-map reference model.
  // The queue stays short, so it keeps passing through one packet, where
  // the lone packet waits in the slot, and back into the tree.
  keyed_queue q;
  std::map<std::pair<std::int64_t, std::uint64_t>, std::uint64_t> ref;
  std::mt19937_64 rng(99);
  std::uint64_t uid = 0;  // mirrors the queue's internal arrival sequence
  std::uint64_t id = 0;
  std::size_t bytes = 0;  // every packet's size is its id % 1500 + 40

  for (int round = 0; round < 50'000; ++round) {
    const auto op = rng() % 4;
    if (op < 2 || ref.empty()) {
      const auto key = static_cast<std::int64_t>(rng() % 64) - 32;
      const std::uint64_t pid = ++id;
      q.insert(key, pkt(pid, static_cast<std::uint32_t>(pid % 1500 + 40)));
      ref.emplace(std::make_pair(key, uid++), pid);
      bytes += pid % 1500 + 40;
    } else if (op == 2) {
      auto p = q.pop_min();
      ASSERT_NE(p, nullptr);
      ASSERT_EQ(p->id, ref.begin()->second);
      ref.erase(ref.begin());
      bytes -= p->size_bytes;
    } else {
      auto p = q.pop_max();
      ASSERT_NE(p, nullptr);
      ASSERT_EQ(p->id, std::prev(ref.end())->second);
      ref.erase(std::prev(ref.end()));
      bytes -= p->size_bytes;
    }
    ASSERT_EQ(q.size(), ref.size());
    ASSERT_EQ(q.bytes(), bytes);
    ASSERT_EQ(q.empty(), ref.empty());
    if (!ref.empty()) {
      ASSERT_EQ(*q.min_key(), ref.begin()->first.first);
      ASSERT_EQ(*q.max_key(), std::prev(ref.end())->first.first);
    } else {
      ASSERT_FALSE(q.min_key().has_value());
    }
  }
  while (!ref.empty()) {
    ASSERT_EQ(q.pop_min()->id, ref.begin()->second);
    ref.erase(ref.begin());
  }
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.bytes(), 0u);
}

TEST(keyed_queue, lone_packet_keeps_its_arrival_order_in_the_tree) {
  // The first packet waits in the slot; the second arrival moves it into
  // the tree under its own (key, arrival) pair, so it still wins the tie.
  keyed_queue q;
  q.insert(7, pkt(1, 100));
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(*q.min_key(), 7);
  EXPECT_EQ(*q.max_key(), 7);
  q.insert(7, pkt(2, 200));
  q.insert(3, pkt(3, 300));
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.bytes(), 600u);
  EXPECT_EQ(q.pop_min()->id, 3u);
  EXPECT_EQ(q.pop_min()->id, 1u);
  EXPECT_EQ(q.pop_max()->id, 2u);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.bytes(), 0u);
}

TEST(keyed_queue, destruction_returns_slot_and_tree_packets_to_the_pool) {
  // One queue is destroyed holding a pooled packet in its slot, the other
  // holding pooled packets in its tree (the first of them moved there from
  // the slot): the pool gets every packet back.
  net::packet_pool pool;
  {
    keyed_queue in_slot;
    keyed_queue in_tree;
    in_slot.insert(5, pool.make());
    in_tree.insert(5, pool.make());
    in_tree.insert(1, pool.make());
    EXPECT_EQ(pool.live(), 3u);
    EXPECT_EQ(in_slot.size(), 1u);
    EXPECT_EQ(in_tree.size(), 2u);
  }
  EXPECT_EQ(pool.live(), 0u);
  EXPECT_EQ(pool.pooled(), 3u);
}

TEST(keyed_queue, interleaved_operations) {
  keyed_queue q;
  q.insert(10, pkt(1));
  q.insert(5, pkt(2));
  EXPECT_EQ(q.pop_min()->id, 2u);
  q.insert(1, pkt(3));
  q.insert(20, pkt(4));
  EXPECT_EQ(q.pop_min()->id, 3u);
  EXPECT_EQ(q.pop_max()->id, 4u);
  EXPECT_EQ(q.pop_min()->id, 1u);
}

}  // namespace
}  // namespace ups::sched
