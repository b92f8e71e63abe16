// Port-level tests: cut-through for infinite-rate ports, slack accounting
// under preemption, deferred service decisions, and per-port statistics.
#include <gtest/gtest.h>

#include <memory>
#include <utility>

#include "core/registry.h"
#include "inject_at.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "topo/basic.h"
#include "topo/topology.h"

namespace ups::net {
namespace {

using core::make_factory;
using core::sched_kind;

packet_ptr make_packet(std::uint64_t id, node_id src, node_id dst,
                       std::uint32_t bytes, sim::time_ps slack = 0) {
  packet_ptr p = net::make_packet();
  p->id = id;
  p->flow_id = id;
  p->size_bytes = bytes;
  p->src_host = src;
  p->dst_host = dst;
  p->slack = slack;
  return p;
}

using testing::inject_at;

struct fixture {
  sim::simulator sim;
  net::network net{sim};
  topo::topology topo;
  testing::deferred_calls calls{sim};  // inject_at's events

  explicit fixture(topo::topology t, sched_kind k = sched_kind::fifo,
                   bool preempt = false)
      : topo(std::move(t)) {
    topo::populate(topo, net);
    net.set_buffer_bytes(0);
    net.set_preemption(preempt);
    net.set_scheduler_factory(make_factory(k, 1, &net));
    net.build();
  }
};

topo::topology infinite_line() {
  topo::topology t;
  t.name = "inf-line";
  t.routers = 3;
  t.core_links.push_back(topo::link_spec{0, 1, sim::kInfiniteRate, 0});
  t.core_links.push_back(topo::link_spec{1, 2, sim::kInfiniteRate, 0});
  t.hosts.push_back(topo::host_spec{0, sim::kInfiniteRate, 0});
  t.hosts.push_back(topo::host_spec{2, sim::kInfiniteRate, 0});
  return t;
}

TEST(port, cut_through_preserves_arrival_order) {
  fixture f(infinite_line());
  std::vector<std::uint64_t> order;
  f.net.hooks().on_egress = [&](const packet& p, sim::time_ps) {
    order.push_back(p.id);
  };
  const auto h0 = f.topo.host_id(0);
  const auto h1 = f.topo.host_id(1);
  for (std::uint64_t i = 1; i <= 10; ++i) {
    f.net.send_from_host(make_packet(i, h0, h1, 125));
  }
  f.sim.run();
  ASSERT_EQ(order.size(), 10u);
  for (std::uint64_t i = 0; i < 10; ++i) EXPECT_EQ(order[i], i + 1);
}

TEST(port, cut_through_counts_stats) {
  fixture f(infinite_line());
  const auto h0 = f.topo.host_id(0);
  const auto h1 = f.topo.host_id(1);
  f.net.send_from_host(make_packet(1, h0, h1, 125));
  f.sim.run();
  const auto& p01 = f.net.port_between(0, 1);
  EXPECT_EQ(p01.stats().packets_sent, 1u);
  EXPECT_EQ(p01.stats().bytes_sent, 125u);
}

TEST(port, preemption_slack_accounting_charges_pause_as_waiting) {
  // One 1500 B packet with generous slack is preempted by a 125 B urgent
  // packet. The big packet's slack must decrease by exactly the time it
  // spent not transmitting at that port (the 1 us pause).
  fixture f(topo::line(2, sim::kGbps, 0), sched_kind::lstf_preemptive, true);
  const auto h0 = f.topo.host_id(0);
  const auto h1 = f.topo.host_id(1);

  sim::time_ps big_slack_at_egress = -1;
  f.net.hooks().on_egress = [&](const packet& p, sim::time_ps) {
    if (p.id == 1) big_slack_at_egress = p.slack;
  };

  auto big = make_packet(1, h0, h1, 1500, 100 * sim::kMicrosecond);
  f.net.route(h0, h1, big->path);
  inject_at(f.calls, f.net, std::move(big), 0);
  auto urgent = make_packet(2, h0, h1, 125, 0);
  f.net.route(h0, h1, urgent->path);
  inject_at(f.calls, f.net, std::move(urgent), 6 * sim::kMicrosecond);
  f.sim.run();

  // Timeline at r0: big 0-6 us, urgent 6-7 us, big resumes 7-13 us.
  // Big waited 1 us at r0. At r1 it may wait for the urgent packet's
  // 1 us transmission (arrives 13, urgent done at 8): no wait. So slack
  // must be 100 us - 1 us = 99 us.
  EXPECT_EQ(big_slack_at_egress, 99 * sim::kMicrosecond);
  std::uint64_t preemptions = 0;
  for (const auto& pt : f.net.ports()) {
    preemptions += pt->stats().preemptions;
  }
  EXPECT_EQ(preemptions, 1u);
}

TEST(port, preemptive_packet_count_conserved) {
  fixture f(topo::line(3, sim::kGbps, sim::kMicrosecond),
            sched_kind::lstf_preemptive, true);
  const auto h0 = f.topo.host_id(0);
  const auto h1 = f.topo.host_id(1);
  for (std::uint64_t i = 1; i <= 50; ++i) {
    auto p = make_packet(i, h0, h1, 1500,
                         static_cast<sim::time_ps>((50 - i)) *
                             3 * sim::kMicrosecond);
    f.net.route(h0, h1, p->path);
    inject_at(f.calls, f.net, std::move(p),
              static_cast<sim::time_ps>(i) * sim::kMicrosecond);
  }
  f.sim.run();
  EXPECT_EQ(f.net.stats().delivered, 50u);
  EXPECT_EQ(f.net.stats().dropped, 0u);
}

TEST(port, same_instant_arrivals_scheduled_by_rank_not_delivery_order) {
  // Two packets delivered at the same instant to an idle LSTF port: the
  // lower-slack one must transmit first even if delivered second.
  fixture f(topo::line(2, sim::kGbps, 0), sched_kind::lstf);
  const auto h0 = f.topo.host_id(0);
  const auto h1 = f.topo.host_id(1);
  std::vector<std::uint64_t> order;
  f.net.hooks().on_egress = [&](const packet& p, sim::time_ps) {
    order.push_back(p.id);
  };
  auto relaxed = make_packet(1, h0, h1, 1500, sim::kSecond);
  f.net.route(h0, h1, relaxed->path);
  inject_at(f.calls, f.net, std::move(relaxed), sim::kMicrosecond);
  auto urgent = make_packet(2, h0, h1, 1500, 0);
  f.net.route(h0, h1, urgent->path);
  inject_at(f.calls, f.net, std::move(urgent), sim::kMicrosecond);
  f.sim.run();
  EXPECT_EQ(order, (std::vector<std::uint64_t>{2, 1}));
}

TEST(port, work_conserving_no_idle_with_backlog) {
  // Total egress time for n back-to-back packets on a single 1 Gbps hop
  // equals n transmission times exactly: the port never idles.
  fixture f(topo::line(2, sim::kGbps, 0), sched_kind::fifo);
  const auto h0 = f.topo.host_id(0);
  const auto h1 = f.topo.host_id(1);
  sim::time_ps last_egress = 0;
  f.net.hooks().on_egress = [&](const packet&, sim::time_ps t) {
    last_egress = t;
  };
  const int n = 20;
  for (int i = 0; i < n; ++i) {
    auto p = make_packet(i + 1, h0, h1, 1500);
    f.net.route(h0, h1, p->path);
    inject_at(f.calls, f.net, std::move(p), 0);
  }
  f.sim.run();
  // n transmissions at r0 serialize; the last packet then crosses r1.
  EXPECT_EQ(last_egress, (n + 1) * 12 * sim::kMicrosecond);
}

TEST(port, transmission_time_helper_handles_infinite) {
  fixture f(infinite_line());
  EXPECT_EQ(f.net.port_between(0, 1).transmission_time(1'000'000), 0);
}

}  // namespace
}  // namespace ups::net
