// Structural tests for the experiment topologies.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "core/registry.h"
#include "net/network.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "topo/basic.h"
#include "topo/fattree.h"
#include "topo/gadgets.h"
#include "topo/internet2.h"
#include "topo/rocketfuel.h"

namespace ups::topo {
namespace {

// Builds a network and returns router-level path lengths for sampled pairs.
std::vector<std::size_t> sample_path_lengths(const topology& t, int n = 200) {
  sim::simulator sim;
  net::network net(sim);
  populate(t, net);
  net.set_scheduler_factory(core::make_factory(core::sched_kind::fifo, 1));
  net.build();
  std::vector<std::size_t> lens;
  std::vector<net::node_id> path;
  sim::rng rng(7);
  const std::size_t hosts = t.host_count();
  for (int i = 0; i < n; ++i) {
    const auto s = rng.next_below(hosts);
    auto d = rng.next_below(hosts - 1);
    if (d >= s) ++d;
    net.route(t.host_id(s), t.host_id(d), path);
    lens.push_back(path.size());
  }
  return lens;
}

TEST(internet2, paper_dimensions) {
  const auto t = internet2();
  // 10 core routers + 100 edge routers.
  EXPECT_EQ(t.routers, 110);
  EXPECT_EQ(t.host_count(), 100u);
  // 16 core links + 100 access links.
  EXPECT_EQ(t.core_links.size(), 116u);
  EXPECT_EQ(t.bottleneck_rate(), sim::kGbps);
}

TEST(internet2, hop_count_matches_paper_range) {
  // Paper: "number of hops per packet is in the range of 4 to 7, excluding
  // the end hosts."
  const auto lens = sample_path_lengths(internet2());
  for (const auto l : lens) {
    EXPECT_GE(l, 3u);  // edge-core-edge minimum (same-core pairs)
    EXPECT_LE(l, 7u);
  }
  EXPECT_GE(*std::max_element(lens.begin(), lens.end()), 5u);
}

TEST(internet2, default_core_at_least_access_rate) {
  const auto t = internet2();
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_GE(t.core_links[i].rate, sim::kGbps);
  }
}

TEST(internet2, variant_rates) {
  const auto a = internet2_1g_1g();
  EXPECT_EQ(a.hosts.front().rate, sim::kGbps);
  const auto b = internet2_10g_10g();
  EXPECT_EQ(b.hosts.front().rate, 10 * sim::kGbps);
  // 10G-10G: most core links slower than the access links (paper's setup).
  int slower = 0;
  for (std::size_t i = 0; i < 16; ++i) {
    if (b.core_links[i].rate < 10 * sim::kGbps) ++slower;
  }
  EXPECT_GT(slower, 8);
}

TEST(rocketfuel, paper_dimensions) {
  const auto t = rocketfuel();
  // 83 core + 830 edge routers; 131 core links + 830 access links.
  EXPECT_EQ(t.routers, 83 + 830);
  EXPECT_EQ(t.host_count(), 830u);
  EXPECT_EQ(t.core_links.size(), 131u + 830u);
}

TEST(rocketfuel, half_core_links_slower_than_access) {
  const auto t = rocketfuel();
  int slower = 0;
  for (std::size_t i = 0; i < 131; ++i) {
    if (t.core_links[i].rate < sim::kGbps) ++slower;
  }
  EXPECT_NEAR(slower, 66, 1);
}

TEST(rocketfuel, connected) {
  // Every sampled host pair must have a route (throws otherwise).
  const auto lens = sample_path_lengths(rocketfuel(), 100);
  EXPECT_EQ(lens.size(), 100u);
}

TEST(rocketfuel, deterministic_by_seed) {
  const auto a = rocketfuel();
  const auto b = rocketfuel();
  ASSERT_EQ(a.core_links.size(), b.core_links.size());
  for (std::size_t i = 0; i < a.core_links.size(); ++i) {
    EXPECT_EQ(a.core_links[i].a, b.core_links[i].a);
    EXPECT_EQ(a.core_links[i].b, b.core_links[i].b);
    EXPECT_EQ(a.core_links[i].rate, b.core_links[i].rate);
  }
}

TEST(fattree, k4_dimensions) {
  fattree_config cfg;
  cfg.k = 4;
  const auto t = fattree(cfg);
  EXPECT_EQ(t.routers, 8 + 8 + 4);
  EXPECT_EQ(t.host_count(), 16u);
  // Pod links: 4 pods x 2 edge x 2 agg = 16; core links: 4 pods x 2 agg x 2
  // = 16.
  EXPECT_EQ(t.core_links.size(), 32u);
}

TEST(fattree, k8_dimensions) {
  const auto t = fattree();
  EXPECT_EQ(t.routers, 32 + 32 + 16);
  EXPECT_EQ(t.host_count(), 128u);
}

TEST(fattree, all_links_same_rate) {
  const auto t = fattree();
  for (const auto& l : t.core_links) EXPECT_EQ(l.rate, 10 * sim::kGbps);
  for (const auto& h : t.hosts) EXPECT_EQ(h.rate, 10 * sim::kGbps);
}

TEST(fattree, inter_pod_paths_traverse_core) {
  fattree_config cfg;
  cfg.k = 4;
  const auto t = fattree(cfg);
  sim::simulator sim;
  net::network net(sim);
  populate(t, net);
  net.set_scheduler_factory(core::make_factory(core::sched_kind::fifo, 1));
  net.build();
  // Hosts 0 and 15 are in different pods: 5-router path
  // (edge-agg-core-agg-edge).
  std::vector<net::node_id> path;
  net.route(t.host_id(0), t.host_id(15), path);
  EXPECT_EQ(path.size(), 5u);
  // Same edge switch: single router.
  net.route(t.host_id(0), t.host_id(1), path);
  EXPECT_EQ(path.size(), 1u);
}

TEST(basic, line_dumbbell_parking_lot_shapes) {
  const auto l = line(5);
  EXPECT_EQ(l.routers, 5);
  EXPECT_EQ(l.core_links.size(), 4u);
  const auto d = dumbbell(3, 10 * sim::kGbps, sim::kGbps);
  EXPECT_EQ(d.routers, 2);
  EXPECT_EQ(d.host_count(), 6u);
  EXPECT_EQ(d.bottleneck_rate(), sim::kGbps);
  const auto p = parking_lot(4);
  EXPECT_EQ(p.routers, 4);
  EXPECT_EQ(p.host_count(), 4u);
}

TEST(gadgets, shapes_and_packet_counts) {
  const auto f5 = fig5_case(1);
  EXPECT_EQ(f5.topo.routers, 10);
  EXPECT_EQ(f5.packets.size(), 10u);  // a, x, b1-3, y1-2, c1-2, z
  const auto f6 = fig6_priority_cycle();
  EXPECT_EQ(f6.topo.routers, 6);
  EXPECT_EQ(f6.packets.size(), 3u);
  const auto f7 = fig7_lstf_failure();
  EXPECT_EQ(f7.topo.routers, 6);
  EXPECT_EQ(f7.packets.size(), 6u);
}

TEST(gadgets, fig5_cases_share_a_and_x_attributes) {
  const auto c1 = fig5_case(1);
  const auto c2 = fig5_case(2);
  // Packets a and x (indices 0 and 1): identical i, o and path across cases
  // — the crux of the Appendix C counterexample.
  for (const std::size_t i : {0u, 1u}) {
    EXPECT_EQ(c1.packets[i].inject_at, c2.packets[i].inject_at);
    EXPECT_EQ(c1.packets[i].expected_out, c2.packets[i].expected_out);
    EXPECT_EQ(c1.packets[i].path, c2.packets[i].path);
  }
}

TEST(topology, scale_delays) {
  auto t = internet2();
  const auto before = t.core_links.front().delay;
  t.scale_delays(0.5);
  EXPECT_EQ(t.core_links.front().delay, before / 2);
}

}  // namespace
}  // namespace ups::topo
