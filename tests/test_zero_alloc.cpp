// Zero-allocation gates for the hot path (§5 "Real Implementation": LSTF
// costs a router no more per packet than fine-grained priorities, so no
// discipline may allocate per packet, and neither may the event kernel or
// the network's forwarding).
//
// Each lane first warms up until the packet pool, the queue's storage, every
// per-flow table, the kernel's arrays and the network's arenas have reached
// their high-water marks (the warm-up scales with depth, since deep backlogs
// fill their freelists slowly), then counts heap allocations over
// kCountedOps more operations through alloc_counter.h's global hook and
// expects none.
//
// Set-up has byte budgets instead: route lookups on a RocketFuel network,
// and building one under the Random factory, must stay within the bytes
// their design needs (route trees built on first use, generators on first
// draw). So must a recording's trace, whose records are appended one by one
// with no count known up front.
#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <memory>
#include <ostream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "alloc_counter.h"
#include "core/registry.h"
#include "net/flow_control.h"
#include "net/network.h"
#include "net/packet_pool.h"
#include "net/trace.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "topo/basic.h"
#include "topo/rocketfuel.h"
#include "topo/topology.h"

namespace ups {
namespace {

constexpr std::uint64_t kCountedOps = 100'000;

std::uint64_t warmup_ops(std::size_t depth) {
  return kCountedOps / 10 + 4 * depth + 1024;
}

// --- packet hops -------------------------------------------------------------

// Each discipline is built the way a network builds it for a router port.
struct discipline {
  const char* name;
  core::sched_kind kind;
};

void PrintTo(const discipline& d, std::ostream* os) { *os << d.name; }

const discipline kDisciplines[] = {
    {"fifo", core::sched_kind::fifo},
    {"lifo", core::sched_kind::lifo},
    {"priority", core::sched_kind::static_priority},
    {"sjf", core::sched_kind::sjf},
    {"fifo_plus", core::sched_kind::fifo_plus},
    {"lstf", core::sched_kind::lstf},
    {"fq", core::sched_kind::fq},
    {"random", core::sched_kind::random},
    {"virtual_clock", core::sched_kind::virtual_clock},
    {"pfabric", core::sched_kind::srpt_pfabric},
    {"drr", core::sched_kind::drr},
};

// Header fields every discipline keys on, drawn once up front.
struct stamp_vals {
  std::uint64_t flow_id;
  sim::time_ps slack;
  std::int64_t priority;
  std::uint64_t flow_size;
  sim::time_ps queueing_delay;
};

std::vector<stamp_vals> make_stamp_ring(std::size_t n) {
  sim::rng rng(7);
  std::vector<stamp_vals> ring(n);
  for (auto& s : ring) {
    s.flow_id = rng.next_below(64);
    s.slack = static_cast<sim::time_ps>(rng.next_below(1'000'000'000));
    s.priority = static_cast<std::int64_t>(rng.next_below(1'000'000));
    s.flow_size = 1'460 * (1 + rng.next_below(1'000));
    s.queueing_delay = static_cast<sim::time_ps>(rng.next_below(1'000'000));
  }
  return ring;
}

class packet_hop
    : public ::testing::TestWithParam<std::tuple<discipline, std::size_t>> {};

// One op is a packet hop against a queue holding `depth` packets: create
// from the pool, stamp the header fields and the routed path as the traffic
// sources do, enqueue, dequeue and destroy. At depth 0 every packet finds
// the queue empty and leaves it so: an idle port, which rank schedulers
// serve from keyed_queue's one-packet slot.
TEST_P(packet_hop, allocates_nothing_once_warm) {
  const auto& [d, depth] = GetParam();
  const std::vector<stamp_vals> ring = make_stamp_ring(1024);
  const std::vector<net::node_id> route = {4, 9, 17, 3, 12};
  net::packet_pool pool;  // declared first: it must outlive q's packets
  const std::unique_ptr<net::scheduler> q = core::make_factory(d.kind, 3)(
      {0, 0, 1, net::node_kind::router, sim::kGbps});
  std::uint64_t id = 1;
  auto make = [&] {
    net::packet_ptr p = pool.make();
    const stamp_vals& s = ring[id & 1023];
    p->id = id++;
    p->flow_id = s.flow_id;
    p->size_bytes = 1500;
    p->slack = s.slack;
    p->priority = s.priority;
    p->flow_size_bytes = s.flow_size;
    p->remaining_flow_bytes = s.flow_size;
    p->queueing_delay = s.queueing_delay;
    p->path = route;  // a recycled packet's path keeps its capacity
    return p;
  };
  sim::time_ps now = 0;
  auto hop = [&] {
    q->enqueue(make(), now);
    net::packet_ptr p = q->dequeue(now);
    now += 1000;
  };

  const std::uint64_t warm = testing::allocations_during([&] {
    for (std::size_t i = 0; i < depth; ++i) q->enqueue(make(), 0);
    for (std::uint64_t i = 0; i < warmup_ops(depth); ++i) hop();
  });
  ASSERT_GT(warm, 0u) << "the allocation hook counts nothing";
  EXPECT_EQ(testing::allocations_during([&] {
              for (std::uint64_t i = 0; i < kCountedOps; ++i) hop();
            }),
            0u);
  EXPECT_EQ(q->packets(), depth);
}

INSTANTIATE_TEST_SUITE_P(
    depths, packet_hop,
    ::testing::Combine(::testing::ValuesIn(kDisciplines),
                       ::testing::Values(0, 16, 256, 4096)),
    [](const ::testing::TestParamInfo<packet_hop::ParamType>& info) {
      return std::string(std::get<0>(info.param).name) + "_depth_" +
             std::to_string(std::get<1>(info.param));
    });

// --- event kernel ------------------------------------------------------------

// One port's kernel events, embedded as net::port embeds them: the
// completion of a transmission, which defers the port's service decision,
// and that decision, which files the port's next completion `gap` ps ahead.
struct port_events {
  port_events(sim::simulator& kernel, sim::time_ps gap)
      : k(kernel), gap(gap) {}

  void complete() {
    if (!decision.pending()) k.defer_late(decision);
  }
  void decide() {
    if (!completion.pending()) k.schedule_in(gap, completion);
  }

  sim::simulator& k;
  sim::time_ps gap;
  sim::member_event<port_events, &port_events::complete> completion{*this};
  sim::member_event<port_events, &port_events::decide> decision{*this};
};

// An event that does nothing when it runs: a retransmit timer, embedded as
// a TCP flow embeds one, which never fires here (it is re-armed before it
// is due), and a one-shot event filed at the current instant.
struct idle_event final : sim::event {
  void fire() override {}
};

class event_kernel : public ::testing::TestWithParam<std::size_t> {};

// A standing population of `depth` pending completions, one per port. Each
// op runs the earliest completion, which defers its port's decision, and
// then that decision, which files the port's next completion `depth` ps
// ahead. Every 4th op also preempts a port (cancels its completion and
// files it again while the stale entry is still queued), re-arms an owned
// timer far ahead the way TCP's retransmit clock does, and files a one-shot
// event at the current instant, which one more run_next runs; so
// compaction and the run list are both counted.
TEST_P(event_kernel, allocates_nothing_once_warm) {
  const std::size_t depth = GetParam();
  sim::simulator k;
  const auto gap = static_cast<sim::time_ps>(depth);
  std::deque<port_events> ports;  // a deque never moves its elements
  idle_event rto;
  idle_event shot;
  auto op = [&](std::uint64_t i) {
    if (i % 4 == 0) {
      port_events& victim = ports[(i + depth / 2) % depth];
      if (victim.completion.pending()) {
        k.cancel(victim.completion);
        k.schedule_in(gap + 1, victim.completion);
      }
      k.cancel(rto);
      k.schedule_in(4 * gap, rto);
      k.schedule_in(0, shot);
      k.run_next();  // one more event this op: the one-shot
    }
    k.run_next();  // the earliest completion, which defers its decision
    k.run_next();  // that decision, before any later completion
  };

  // Stale entries linger until they surface or are compacted, so the
  // heap's high-water mark takes several passes over the ports.
  const std::uint64_t warm = testing::allocations_during([&] {
    for (std::size_t i = 0; i < depth; ++i) {
      k.schedule_at(1 + static_cast<sim::time_ps>(i),
                    ports.emplace_back(k, gap).completion);
    }
    for (std::uint64_t i = 0; i < warmup_ops(depth); ++i) op(i);
  });
  ASSERT_GT(warm, 0u) << "the allocation hook counts nothing";
  const std::uint64_t processed = k.events_processed();
  EXPECT_EQ(testing::allocations_during([&] {
              for (std::uint64_t i = 0; i < kCountedOps; ++i) op(i);
            }),
            0u);
  EXPECT_EQ(k.events_processed() - processed, kCountedOps * 9 / 4);
  EXPECT_EQ(k.pending(), depth + 1);  // every port's completion, the timer
}

INSTANTIATE_TEST_SUITE_P(depths, event_kernel,
                         ::testing::Values(100, 1'000, 10'000, 100'000,
                                           1'000'000),
                         [](const ::testing::TestParamInfo<std::size_t>& info) {
                           return "depth_" + std::to_string(info.param);
                         });

// --- forwarding --------------------------------------------------------------

// A line of four routers under credit flow control, driven as a replay
// drives its network: each packet is injected at the first router at its
// ingress time (run_before, then inject_at_ingress) and leaves past the
// last. Every hop between routers puts the packet on a wire and returns its
// credits, and every 8th packet also carries a forced-stall hold at the
// second router. The pattern is periodic and the line never saturates
// (12 us of service per packet, one every 20 us), so warm-up reaches every
// high-water mark: the pool, the ports' queues, the wire, credit-return
// and hold arenas, and the kernel's heap.
TEST(forwarding, allocates_nothing_once_warm) {
  sim::simulator sim;
  net::network net(sim);
  const topo::topology topo = topo::line(4);
  topo::populate(topo, net);
  net.set_scheduler_factory(core::make_factory(core::sched_kind::fifo, 1));
  net.set_flow(net::flow_spec::parse("credit:15000"));
  net.build();
  const net::node_id src = topo.host_id(0);
  const net::node_id dst = topo.host_id(1);
  std::vector<net::node_id> path;
  net.route(src, dst, path);
  std::uint64_t id = 0;
  auto forward = [&] {
    ++id;
    sim.run_before(static_cast<sim::time_ps>(id) * 20 * sim::kMicrosecond);
    net::packet_ptr p = net.pool().make();
    p->id = id;
    p->flow_id = id;
    p->size_bytes = 1500;
    p->src_host = src;
    p->dst_host = dst;
    p->path = path;  // a recycled packet's path keeps its capacity
    if (id % 8 == 0) {
      p->forced_stall_hop = 1;
      p->forced_stall_time = 30 * sim::kMicrosecond;
    }
    net.inject_at_ingress(std::move(p));
  };

  const std::uint64_t warm = testing::allocations_during([&] {
    for (std::uint64_t i = 0; i < kCountedOps / 10; ++i) forward();
  });
  ASSERT_GT(warm, 0u) << "the allocation hook counts nothing";
  EXPECT_EQ(testing::allocations_during([&] {
              for (std::uint64_t i = 0; i < kCountedOps; ++i) forward();
            }),
            0u);
  sim.run();
  EXPECT_EQ(net.stats().injected, id);
  EXPECT_EQ(net.stats().delivered, id);
  EXPECT_EQ(net.stats().dropped, 0u);
}

// --- set-up ------------------------------------------------------------------

// A RocketFuel network as a recording run sets it up (83 core and 830 leaf
// routers, 830 hosts, 3,582 ports), with `kind` at every port. build() is
// left to the test, so its bytes can be counted.
struct rocketfuel_net {
  explicit rocketfuel_net(core::sched_kind kind) {
    topo::populate(topo, net);
    net.set_scheduler_factory(core::make_factory(kind, 1, &net));
  }
  [[nodiscard]] net::node_id host(std::size_t i) const {
    return topo.host_id(i);
  }

  sim::simulator sim;
  net::network net{sim};
  topo::topology topo = topo::rocketfuel();
};

TEST(setup, route_lookups_allocate_nothing_once_every_tree_exists) {
  rocketfuel_net rf(core::sched_kind::fifo);
  rf.net.build();
  const std::size_t hosts = rf.topo.host_count();
  sim::rng rng(1);
  std::vector<std::pair<net::node_id, net::node_id>> pairs(kCountedOps);
  for (auto& [s, d] : pairs) {
    const auto i = rng.next_below(hosts);
    auto j = rng.next_below(hosts - 1);
    if (j >= i) ++j;
    s = rf.host(i);
    d = rf.host(j);
  }
  std::vector<net::node_id> path;
  // A lookup from every source builds every tree; one pass over the pairs
  // sizes `path` for the longest of them.
  const std::uint64_t warm = testing::allocations_during([&] {
    for (std::size_t i = 0; i < hosts; ++i) {
      rf.net.route(rf.host(i), rf.host((i + 1) % hosts), path);
    }
    for (const auto& [s, d] : pairs) rf.net.route(s, d, path);
  });
  ASSERT_GT(warm, 0u) << "the allocation hook counts nothing";
  EXPECT_EQ(testing::allocations_during([&] {
              for (const auto& [s, d] : pairs) rf.net.route(s, d, path);
            }),
            0u);
}

TEST(setup, every_route_of_a_fresh_network_takes_under_1_mb) {
  // 83 trees of 1,743 four-byte predecessors, one set of Dijkstra working
  // arrays and the lookups' one path vector: 0.6 MB. Storing every router's
  // paths instead requests 27 MB.
  rocketfuel_net rf(core::sched_kind::fifo);
  rf.net.build();
  const std::size_t hosts = rf.topo.host_count();
  std::vector<net::node_id> path;
  const std::uint64_t bytes = testing::bytes_during([&] {
    for (std::size_t i = 0; i < hosts; ++i) {
      for (std::size_t j = 0; j < hosts; ++j) {
        if (i != j) rf.net.route(rf.host(i), rf.host(j), path);
      }
    }
  });
  EXPECT_LT(bytes, 1'000'000u);
}

TEST(setup, random_factory_build_seeds_no_generator) {
  // build() requests 1.7 MB (g++ 12.2, x86-64). Each Random port allocates
  // its 2.5 KB generator on its first draw, which seeds and twists only the
  // state words that draw needs (sim/rng.h); building one at each of the
  // 3,582 ports made it 10.6 MB.
  rocketfuel_net rf(core::sched_kind::random);
  const std::uint64_t bytes =
      testing::bytes_during([&] { rf.net.build(); });
  EXPECT_LT(bytes, 4'000'000u);
}

// --- trace storage -----------------------------------------------------------

TEST(trace_storage, appends_request_bytes_in_proportion_to_their_records) {
  // Blocks that never move request 1.09x the records' bytes, block map
  // included (g++ 12.2, x86-64). A doubling vector requests 2.62x and
  // moves every earlier record at each doubling.
  constexpr std::size_t kRecords = 100'000;
  net::trace t;
  const net::packet_record* first = nullptr;
  const std::uint64_t bytes = testing::bytes_during([&] {
    for (std::size_t i = 0; i < kRecords; ++i) {
      t.packets.emplace_back();
      if (i == 0) first = &t.packets.front();
    }
  });
  EXPECT_LT(bytes, kRecords * sizeof(net::packet_record) * 5 / 4);
  EXPECT_EQ(&t.packets.front(), first);
}

}  // namespace
}  // namespace ups
