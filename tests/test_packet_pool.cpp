// Tests for the packet freelist arena: recycle/reset semantics, counter
// accounting, and end-to-end pooling through a simulated network.
#include <gtest/gtest.h>

#include "core/registry.h"
#include "net/network.h"
#include "net/packet_pool.h"
#include "sim/simulator.h"
#include "topo/basic.h"
#include "topo/topology.h"
#include "traffic/source.h"

namespace ups::net {
namespace {

TEST(packet_pool, starts_empty) {
  packet_pool pool;
  EXPECT_EQ(pool.live(), 0u);
  EXPECT_EQ(pool.pooled(), 0u);
  EXPECT_EQ(pool.created(), 0u);
  EXPECT_EQ(pool.recycled(), 0u);
}

TEST(packet_pool, destroying_a_pooled_packet_recycles_it) {
  packet_pool pool;
  const packet* raw;
  {
    packet_ptr p = pool.make();
    raw = p.get();
    EXPECT_EQ(pool.live(), 1u);
    EXPECT_EQ(pool.created(), 1u);
  }
  EXPECT_EQ(pool.live(), 0u);
  EXPECT_EQ(pool.pooled(), 1u);
  EXPECT_EQ(pool.recycled(), 1u);
  // The next make() hands back the same object, not a fresh allocation.
  packet_ptr q = pool.make();
  EXPECT_EQ(q.get(), raw);
  EXPECT_EQ(pool.created(), 1u);
}

TEST(packet_pool, reuse_resets_every_scratch_and_header_field) {
  packet_pool pool;
  {
    packet_ptr p = pool.make();
    p->id = 77;
    p->flow_id = 5;
    p->seq_in_flow = 9;
    p->size_bytes = 1500;
    p->kind = packet_kind::ack;
    p->src_host = 3;
    p->dst_host = 4;
    p->path = {1, 2, 3};
    p->hop = 2;
    p->slack = 123;
    p->priority = -9;
    p->deadline = 55;
    p->hop_deadlines = {10, 20, 30};
    p->flow_size_bytes = 99;
    p->remaining_flow_bytes = 98;
    p->tseq = 11;
    p->tack = 12;
    p->sched_key = 1234;
    p->tx_remaining = 42;  // scratch: >=0 means "resumed, keep sched_key"
    p->port_enqueue_time = 1;
    p->created_at = 2;
    p->ingress_time = 3;
    p->queueing_delay = 4;
    p->hop_departs = {100, 200};
    p->remaining_tmin = 5;
    p->ref_egress_time = 6;
    p->ref_queueing_delay = 7;
    p->forced_drop_hop = 8;
    p->forced_drop_kind = drop_kind::wire;
    p->credit_port = 9;
    p->credit_prev_port = 10;
    p->stall_count = 11;
    p->stall_hop = 12;
    p->stall_time = 13;
    p->stall_max = 14;
    p->forced_stall_hop = 15;
    p->forced_stall_time = 16;
  }
  // Every field, the vectors by contents (reuse keeps their capacity).
  EXPECT_TRUE(*pool.make() == packet{});
}

TEST(packet_pool, reuse_keeps_vector_capacity) {
  packet_pool pool;
  {
    packet_ptr p = pool.make();
    p->path = {1, 2, 3, 4, 5};
    p->hop_departs = {10, 20, 30};
  }
  packet_ptr p = pool.make();
  EXPECT_TRUE(p->path.empty());
  EXPECT_GE(p->path.capacity(), 5u);  // reassigning the path won't allocate
  EXPECT_GE(p->hop_departs.capacity(), 3u);
}

TEST(packet_pool, steady_state_churn_reuses_one_object) {
  packet_pool pool;
  for (int i = 0; i < 1000; ++i) {
    packet_ptr p = pool.make();
    p->id = static_cast<std::uint64_t>(i);
  }
  EXPECT_EQ(pool.created(), 1u);
  EXPECT_EQ(pool.recycled(), 1000u);
  EXPECT_EQ(pool.pooled(), 1u);
}

TEST(packet_pool, unpooled_make_packet_is_plain_heap) {
  // No pool attached: destruction must free, not recycle (valgrind/ASan
  // would flag a leak or double-free if the deleter mis-routed).
  packet_ptr p = make_packet();
  EXPECT_EQ(p->tx_remaining, -1);
  p.reset();
  EXPECT_EQ(p, nullptr);
}

TEST(packet_pool, network_recycles_delivered_packets) {
  // Run real traffic end-to-end: every packet the UDP app emitted must come
  // back to the pool once delivered, and the pool's high-water mark must be
  // the peak in-flight population, not the total emitted.
  sim::simulator sim;
  network net(sim);
  const auto topology = topo::dumbbell(2, 10 * sim::kGbps, sim::kGbps);
  topo::populate(topology, net);
  net.set_scheduler_factory(core::make_factory(core::sched_kind::fifo, 1));
  net.build();

  std::vector<traffic::flow_spec> flows;
  for (std::uint64_t i = 0; i < 4; ++i) {
    flows.push_back(traffic::flow_spec{
        i, topology.host_id(i % 2), topology.host_id(2 + (i % 2)),
        30'000,  // 20 MTU packets each
        // Spaced beyond each burst's drain time (~240us at the 1 Gbps
        // bottleneck) so later flows reuse earlier flows' packets.
        static_cast<sim::time_ps>(i) * sim::kMillisecond});
  }
  traffic::open_loop_source app(net, flows, {});
  sim.run();

  EXPECT_EQ(app.packets_emitted(), 80u);
  EXPECT_EQ(net.stats().delivered, 80u);
  EXPECT_EQ(net.pool().live(), 0u);          // nothing leaked
  EXPECT_EQ(net.pool().pooled(), net.pool().created());
  EXPECT_LT(net.pool().created(), 80u);      // recycling actually happened
  EXPECT_GT(net.pool().recycled(), 0u);
}

}  // namespace
}  // namespace ups::net
