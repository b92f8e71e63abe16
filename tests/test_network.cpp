// Integration tests for the store-and-forward network substrate: exact link
// timing, ingress/egress hooks, tmin, buffer drops, and forwarding.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/registry.h"
#include "inject_at.h"
#include "net/network.h"
#include "net/trace.h"
#include "routing_reference.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "topo/basic.h"
#include "topo/fattree.h"
#include "topo/internet2.h"
#include "topo/rocketfuel.h"
#include "topo/topology.h"

namespace ups::net {
namespace {

using core::make_factory;
using core::sched_kind;

packet_ptr make_packet(std::uint64_t id, node_id src, node_id dst,
                       std::uint32_t bytes) {
  packet_ptr p = net::make_packet();
  p->id = id;
  p->flow_id = id;
  p->size_bytes = bytes;
  p->src_host = src;
  p->dst_host = dst;
  return p;
}

using testing::inject_at;

struct fixture {
  sim::simulator sim;
  net::network net{sim};
  topo::topology topo;
  testing::deferred_calls calls{sim};  // inject_at's events

  explicit fixture(topo::topology t, sched_kind k = sched_kind::fifo,
                   std::int64_t buffer = 0)
      : topo(std::move(t)) {
    topo::populate(topo, net);
    net.set_buffer_bytes(buffer);
    net.set_scheduler_factory(make_factory(k, 1, &net));
    net.build();
  }
};

TEST(network, single_hop_timing_is_exact) {
  // host -> r0 -> r1 -> host over 1 Gbps links with 1 us propagation.
  fixture f(topo::line(2, sim::kGbps, sim::kMicrosecond));
  const auto h0 = f.topo.host_id(0);
  const auto h1 = f.topo.host_id(1);

  sim::time_ps ingress = -1;
  sim::time_ps egress = -1;
  f.net.hooks().on_ingress = [&](const packet&, sim::time_ps t) {
    ingress = t;
  };
  f.net.hooks().on_egress = [&](const packet&, sim::time_ps t) { egress = t; };

  f.net.send_from_host(make_packet(1, h0, h1, 1500));
  f.sim.run();

  // Host NIC: 12 us transmit + 1 us prop -> ingress (last bit) at 13 us.
  EXPECT_EQ(ingress, 13 * sim::kMicrosecond);
  // r0: 12 us transmit + 1 us prop + r1: 12 us transmit -> egress at 38 us.
  EXPECT_EQ(egress, 38 * sim::kMicrosecond);
  EXPECT_EQ(f.net.stats().delivered, 1u);
}

TEST(network, queueing_delay_accumulates_only_when_waiting) {
  fixture f(topo::line(2, sim::kGbps, sim::kMicrosecond));
  const auto h0 = f.topo.host_id(0);
  const auto h1 = f.topo.host_id(1);

  std::vector<sim::time_ps> qdelays;
  f.net.hooks().on_egress = [&](const packet& p, sim::time_ps) {
    qdelays.push_back(p.queueing_delay);
  };
  // Two back-to-back packets: the second waits one transmission time at the
  // host NIC (and then nowhere else: downstream it is paced).
  f.net.send_from_host(make_packet(1, h0, h1, 1500));
  f.net.send_from_host(make_packet(2, h0, h1, 1500));
  f.sim.run();

  ASSERT_EQ(qdelays.size(), 2u);
  EXPECT_EQ(qdelays[0], 0);
  EXPECT_EQ(qdelays[1], 12 * sim::kMicrosecond);
}

TEST(network, tmin_matches_observed_uncongested_traversal) {
  fixture f(topo::line(4, sim::kGbps, 3 * sim::kMicrosecond));
  const auto h0 = f.topo.host_id(0);
  const auto h1 = f.topo.host_id(1);

  sim::time_ps ingress = -1, egress = -1;
  f.net.hooks().on_ingress = [&](const packet&, sim::time_ps t) {
    ingress = t;
  };
  f.net.hooks().on_egress = [&](const packet&, sim::time_ps t) { egress = t; };

  auto p = make_packet(1, h0, h1, 1000);
  f.net.route(h0, h1, p->path);
  const auto tmin = f.net.tmin(*p, 0);
  f.net.send_from_host(std::move(p));
  f.sim.run();

  // In an empty network the traversal from ingress to egress equals tmin.
  EXPECT_EQ(egress - ingress, tmin);
}

TEST(network, inject_at_ingress_bypasses_host_link) {
  fixture f(topo::line(3, sim::kGbps, sim::kMicrosecond));
  const auto h0 = f.topo.host_id(0);
  const auto h1 = f.topo.host_id(1);

  sim::time_ps ingress = -1;
  f.net.hooks().on_ingress = [&](const packet&, sim::time_ps t) {
    ingress = t;
  };
  auto p = make_packet(1, h0, h1, 1500);
  f.net.route(h0, h1, p->path);
  inject_at(f.calls, f.net, std::move(p), 777 * sim::kMicrosecond);
  f.sim.run();
  EXPECT_EQ(ingress, 777 * sim::kMicrosecond);
}

TEST(network, drop_tail_on_full_buffer) {
  // Buffer sized for exactly two 1500 B packets; send four simultaneously.
  // Admission happens before the (deferred) service decision, so exactly
  // two packets are admitted and two drop.
  fixture f(topo::line(2, sim::kGbps, sim::kMicrosecond), sched_kind::fifo,
            3000);
  const auto h0 = f.topo.host_id(0);
  const auto h1 = f.topo.host_id(1);
  int drops = 0;
  f.net.hooks().on_drop = [&](const packet&, node_id, sim::time_ps,
                              drop_kind) { ++drops; };
  for (int i = 0; i < 4; ++i) {
    f.net.send_from_host(make_packet(i + 1, h0, h1, 1500));
  }
  f.sim.run();
  EXPECT_EQ(drops, 2);
  EXPECT_EQ(f.net.stats().delivered, 2u);
}

TEST(network, buffer_admits_again_once_service_drains) {
  // Same buffer, but the packets arrive spaced by one transmission time:
  // the queue never exceeds its capacity and nothing drops.
  fixture f(topo::line(2, sim::kGbps, sim::kMicrosecond), sched_kind::fifo,
            3000);
  const auto h0 = f.topo.host_id(0);
  const auto h1 = f.topo.host_id(1);
  int drops = 0;
  f.net.hooks().on_drop = [&](const packet&, node_id, sim::time_ps,
                              drop_kind) { ++drops; };
  for (int i = 0; i < 4; ++i) {
    auto p = make_packet(i + 1, h0, h1, 1500);
    f.net.route(h0, h1, p->path);
    inject_at(f.calls, f.net, std::move(p), i * 12 * sim::kMicrosecond);
  }
  f.sim.run();
  EXPECT_EQ(drops, 0);
  EXPECT_EQ(f.net.stats().delivered, 4u);
}

TEST(network, hosts_on_same_router_single_router_path) {
  topo::topology t = topo::line(1, sim::kGbps, sim::kMicrosecond, 2);
  fixture f(std::move(t));
  const auto h0 = f.topo.host_id(0);
  // Hosts alternate ends in line(); with 1 router both attach to router 0.
  const auto h1 = f.topo.host_id(1);
  std::vector<node_id> path;
  f.net.route(h0, h1, path);
  EXPECT_EQ(path.size(), 1u);

  sim::time_ps egress = -1;
  f.net.hooks().on_egress = [&](const packet&, sim::time_ps t) { egress = t; };
  f.net.send_from_host(make_packet(1, h0, h1, 1500));
  f.sim.run();
  EXPECT_GT(egress, 0);
  EXPECT_EQ(f.net.stats().delivered, 1u);
}

TEST(network, trace_recorder_captures_schedule) {
  fixture f(topo::line(3, sim::kGbps, sim::kMicrosecond));
  net::trace_recorder rec(f.net, /*with_hop_times=*/false);
  const auto h0 = f.topo.host_id(0);
  const auto h1 = f.topo.host_id(1);
  for (int i = 0; i < 5; ++i) {
    f.net.send_from_host(make_packet(i + 1, h0, h1, 1500));
  }
  f.sim.run();
  const auto tr = rec.take();
  ASSERT_EQ(tr.packets.size(), 5u);
  for (const auto& r : tr.packets) {
    EXPECT_GT(r.egress_time, r.ingress_time);
    EXPECT_EQ(r.path.size(), 3u);
    EXPECT_GE(r.ingress_time, 0);
    EXPECT_TRUE(r.hop_departs.empty());  // recorded only with hop times
  }
}

TEST(network, per_hop_departure_recording) {
  fixture f(topo::line(3, sim::kGbps, sim::kMicrosecond));
  net::trace_recorder rec(f.net, /*with_hop_times=*/true);
  const auto h0 = f.topo.host_id(0);
  const auto h1 = f.topo.host_id(1);
  // The recorder alone switches recording on.
  f.net.send_from_host(make_packet(1, h0, h1, 1500));
  f.sim.run();
  const auto tr = rec.take();
  ASSERT_EQ(tr.packets.size(), 1u);
  ASSERT_EQ(tr.packets[0].hop_departs.size(), 3u);
  EXPECT_LT(tr.packets[0].hop_departs[0], tr.packets[0].hop_departs[1]);
  EXPECT_LT(tr.packets[0].hop_departs[1], tr.packets[0].hop_departs[2]);
  EXPECT_EQ(tr.packets[0].hop_departs[2], tr.packets[0].egress_time);
}

TEST(network, infinite_rate_port_transmits_instantly) {
  topo::topology t;
  t.name = "inf";
  t.routers = 2;
  t.core_links.push_back(topo::link_spec{0, 1, sim::kInfiniteRate, 0});
  t.hosts.push_back(topo::host_spec{0, sim::kInfiniteRate, 0});
  t.hosts.push_back(topo::host_spec{1, sim::kInfiniteRate, 0});
  fixture f(std::move(t));
  sim::time_ps egress = -1;
  f.net.hooks().on_egress = [&](const packet&, sim::time_ps tm) {
    egress = tm;
  };
  f.net.send_from_host(make_packet(1, f.topo.host_id(0), f.topo.host_id(1),
                                   125));
  f.sim.run();
  EXPECT_EQ(egress, 0);
}

// The reference router-only graph (weight = propagation delay + 1ps),
// rebuilt from the network's ports independently of route().
routing_graph reference_graph(const network& net) {
  routing_graph g(net.node_count());
  for (const auto& p : net.ports()) {
    if (net.is_router(p->from()) && net.is_router(p->to())) {
      g[p->from()].push_back(routing_edge{p->to(), p->prop_delay() + 1});
    }
  }
  return g;
}

// Every sampled host pair's route must be exactly the definition-level
// path (tests/routing_reference.h) over the router-only graph between the
// two attachment routers, whatever trees and leaf rule route() uses.
void expect_routes_match_reference(topo::topology t, std::size_t stride = 1) {
  fixture f(std::move(t));
  const routing_graph g = reference_graph(f.net);
  std::vector<node_id> path;
  for (std::size_t i = 0; i < f.topo.host_count(); i += stride) {
    const auto hi = f.topo.host_id(i);
    const node_id ri = f.net.attachment(hi);
    const auto prev = testing::reference_tree(g, ri);
    for (std::size_t j = 0; j < f.topo.host_count(); j += stride) {
      const auto hj = f.topo.host_id(j);
      const auto expected =
          testing::reference_path(prev, ri, f.net.attachment(hj));
      ASSERT_FALSE(expected.empty());
      f.net.route(hi, hj, path);
      EXPECT_EQ(path, expected)
          << f.topo.name << " host " << i << " -> " << j;
    }
  }
}

TEST(network, routes_match_reference_line) {
  expect_routes_match_reference(
      topo::line(4, sim::kGbps, sim::kMicrosecond, 6));
}

TEST(network, routes_match_reference_line2) {
  // The two routers are each other's only neighbour: both are leaves, and
  // each serves three hosts, so a leaf also routes to itself.
  expect_routes_match_reference(
      topo::line(2, sim::kGbps, sim::kMicrosecond, 3));
}

TEST(network, routes_match_reference_parking_lot) {
  expect_routes_match_reference(
      topo::parking_lot(5, sim::kGbps, sim::kMicrosecond));
}

TEST(network, routes_match_reference_internet2) {
  expect_routes_match_reference(topo::internet2());
}

TEST(network, routes_match_reference_fattree) {
  // 128 hosts: a strided sample still covers intra-edge, intra-pod and
  // cross-pod pairs.
  expect_routes_match_reference(topo::fattree(), /*stride=*/5);
}

TEST(network, routes_match_reference_rocketfuel) {
  // The only topology with leaf routers behind a multi-path core. 830
  // hosts: the stride keeps the sample to ~120 sources and destinations,
  // which keeps the Debug sanitizer build quick.
  expect_routes_match_reference(topo::rocketfuel(), /*stride=*/7);
}

// route() must equal path_from_tree over a tree grown from the source's own
// attachment router, whatever trees and leaf rule it walks, and
// for_each_route_port must visit exactly the ports port_between gives along
// that path, the source's uplink and the egress port included.
void expect_route_and_ports_match_trees(
    fixture& f, const std::vector<std::pair<std::size_t, std::size_t>>& pairs) {
  const routing_graph g = reference_graph(f.net);
  std::vector<std::vector<node_id>> trees(f.net.node_count());
  std::vector<node_id> path;
  std::vector<std::int32_t> want;
  std::vector<std::int32_t> visited;
  for (const auto& [i, j] : pairs) {
    const node_id src = f.topo.host_id(i);
    const node_id dst = f.topo.host_id(j);
    const node_id r0 = f.net.attachment(src);
    auto& tree = trees[static_cast<std::size_t>(r0)];
    if (tree.empty()) tree = shortest_path_tree(g, r0);
    const auto expected = path_from_tree(tree, r0, f.net.attachment(dst));
    ASSERT_FALSE(expected.empty());
    f.net.route(src, dst, path);
    ASSERT_EQ(path, expected) << f.topo.name << " host " << i << " -> " << j;

    want.clear();
    want.push_back(f.net.port_between(src, path.front()).id());
    for (std::size_t k = 0; k + 1 < path.size(); ++k) {
      want.push_back(f.net.port_between(path[k], path[k + 1]).id());
    }
    want.push_back(f.net.port_between(path.back(), dst).id());
    visited.clear();
    f.net.for_each_route_port(
        src, dst, [&](std::int32_t id) { visited.push_back(id); });
    std::sort(want.begin(), want.end());
    std::sort(visited.begin(), visited.end());
    ASSERT_EQ(visited, want) << f.topo.name << " host " << i << " -> " << j;
  }
}

std::vector<std::pair<std::size_t, std::size_t>> every_pair(std::size_t n) {
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) pairs.emplace_back(i, j);
  }
  return pairs;
}

TEST(network, routes_and_route_ports_match_trees_internet2) {
  fixture f(topo::internet2());
  expect_route_and_ports_match_trees(f, every_pair(f.topo.host_count()));
}

TEST(network, routes_and_route_ports_match_trees_fattree) {
  fixture f(topo::fattree());
  expect_route_and_ports_match_trees(f, every_pair(f.topo.host_count()));
}

TEST(network, routes_and_route_ports_match_trees_rocketfuel) {
  // 20,000 random pairs. Most sources sit behind a leaf router, so the
  // leaf rule is exercised throughout, and the pairs of a host with itself
  // cover single-router routes.
  fixture f(topo::rocketfuel());
  const std::size_t hosts = f.topo.host_count();
  std::vector<std::size_t> router_links(f.net.node_count(), 0);
  for (const auto& pt : f.net.ports()) {
    if (f.net.is_router(pt->from()) && f.net.is_router(pt->to())) {
      ++router_links[static_cast<std::size_t>(pt->from())];
    }
  }
  sim::rng rng(35);
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  std::size_t leaf_sources = 0;
  std::size_t self_pairs = 0;
  while (pairs.size() < 20'000) {
    const auto& [i, j] =
        pairs.emplace_back(rng.next_below(hosts), rng.next_below(hosts));
    const node_id r0 = f.net.attachment(f.topo.host_id(i));
    if (router_links[static_cast<std::size_t>(r0)] == 1) ++leaf_sources;
    if (i == j) ++self_pairs;
  }
  EXPECT_GT(leaf_sources, pairs.size() / 2);
  EXPECT_GT(self_pairs, 0u);
  expect_route_and_ports_match_trees(f, pairs);
}

TEST(network, route_ports_throw_before_visiting_when_unreachable) {
  sim::simulator sim;
  network n(sim);
  n.add_router("r0");
  n.add_router("r1");  // disconnected from r0
  const auto h0 = n.add_host("h0");
  const auto h1 = n.add_host("h1");
  n.add_link(0, h0, sim::kGbps, 0);
  n.add_link(1, h1, sim::kGbps, 0);
  n.set_scheduler_factory(make_factory(sched_kind::fifo, 1));
  n.build();
  int visits = 0;
  EXPECT_THROW(
      n.for_each_route_port(h0, h1, [&](std::int32_t) { ++visits; }),
      std::runtime_error);
  EXPECT_EQ(visits, 0);
}

TEST(network, route_overwrites_out_and_repeats_its_path) {
  fixture f(topo::rocketfuel());
  const auto a = f.topo.host_id(0);
  const auto b = f.topo.host_id(f.topo.host_count() - 1);
  std::vector<node_id> first;
  f.net.route(a, b, first);
  const node_id ra = f.net.attachment(a);
  EXPECT_EQ(first, testing::reference_path(
                       testing::reference_tree(reference_graph(f.net), ra),
                       ra, f.net.attachment(b)));
  // Build every other source's tree, leaf and core alike, then look the
  // pair up again into a vector that holds more than any path.
  std::vector<node_id> out;
  for (std::size_t i = 0; i < f.topo.host_count(); ++i) {
    f.net.route(f.topo.host_id(i), b, out);
    ASSERT_FALSE(out.empty());
  }
  out.assign(100, kInvalidNode);
  f.net.route(a, b, out);
  EXPECT_EQ(out, first);
  f.net.route(a, b, out);
  EXPECT_EQ(out, first);
}

}  // namespace
}  // namespace ups::net
