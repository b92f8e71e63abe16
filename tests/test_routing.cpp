// Unit tests for deterministic shortest-path routing.
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "net/routing.h"
#include "routing_reference.h"
#include "sim/rng.h"

namespace ups::net {
namespace {

routing_graph make_graph(int n,
                         std::initializer_list<std::tuple<int, int, long>> e) {
  routing_graph g(n);
  for (const auto& [a, b, w] : e) {
    g[a].push_back(routing_edge{static_cast<node_id>(b), w});
    g[b].push_back(routing_edge{static_cast<node_id>(a), w});
  }
  return g;
}

TEST(routing, trivial_self_path) {
  const auto g = make_graph(2, {{0, 1, 1}});
  const auto p = shortest_path(g, 0, 0);
  EXPECT_EQ(p, (std::vector<node_id>{0}));
}

TEST(routing, direct_edge) {
  const auto g = make_graph(2, {{0, 1, 5}});
  EXPECT_EQ(shortest_path(g, 0, 1), (std::vector<node_id>{0, 1}));
}

TEST(routing, prefers_lower_total_weight) {
  // 0-1-2 costs 2, 0-2 costs 5.
  const auto g = make_graph(3, {{0, 1, 1}, {1, 2, 1}, {0, 2, 5}});
  EXPECT_EQ(shortest_path(g, 0, 2), (std::vector<node_id>{0, 1, 2}));
}

TEST(routing, deterministic_tie_break_prefers_smaller_predecessor) {
  // Two equal-cost 2-hop paths 0-1-3 and 0-2-3: must pick via node 1.
  const auto g =
      make_graph(4, {{0, 1, 1}, {0, 2, 1}, {1, 3, 1}, {2, 3, 1}});
  EXPECT_EQ(shortest_path(g, 0, 3), (std::vector<node_id>{0, 1, 3}));
}

TEST(routing, unreachable_returns_empty) {
  routing_graph g(3);
  g[0].push_back(routing_edge{1, 1});
  g[1].push_back(routing_edge{0, 1});
  EXPECT_TRUE(shortest_path(g, 0, 2).empty());
}

TEST(routing, long_chain) {
  routing_graph g(50);
  for (node_id i = 0; i + 1 < 50; ++i) {
    g[i].push_back(routing_edge{i + 1, 1});
    g[i + 1].push_back(routing_edge{i, 1});
  }
  const auto p = shortest_path(g, 0, 49);
  ASSERT_EQ(p.size(), 50u);
  for (node_id i = 0; i < 50; ++i) EXPECT_EQ(p[i], i);
}

// shortest_path_tree from every source must equal the definition-level
// tree (tests/routing_reference.h) on every node, dead ends included.
void expect_trees_match_reference(const routing_graph& g) {
  dijkstra_scratch scratch;
  for (node_id s = 0; s < static_cast<node_id>(g.size()); ++s) {
    const auto expected = testing::reference_tree(g, s);
    EXPECT_EQ(shortest_path_tree(g, s), expected) << "source " << s;
    // A reused scratch gives the same tree.
    EXPECT_EQ(shortest_path_tree(g, s, scratch), expected) << "source " << s;
  }
}

TEST(routing, star_matches_reference) {
  // Every leaf is a dead end from the hub.
  expect_trees_match_reference(
      make_graph(6, {{0, 1, 3}, {0, 2, 1}, {0, 3, 2}, {0, 4, 1}, {0, 5, 3}}));
}

TEST(routing, two_router_component_matches_reference) {
  // Nodes 3 and 4 are each other's only neighbour, apart from the rest.
  expect_trees_match_reference(
      make_graph(5, {{0, 1, 1}, {1, 2, 1}, {0, 2, 1}, {3, 4, 2}}));
}

TEST(routing, parallel_links_to_a_leaf_match_reference) {
  // Leaf 3 hangs off 2 by two links of different weights: still a dead end.
  expect_trees_match_reference(make_graph(
      4, {{0, 1, 1}, {1, 2, 1}, {0, 2, 2}, {2, 3, 4}, {2, 3, 1}}));
}

TEST(routing, two_leaves_on_one_neighbour_match_reference) {
  // Leaves 4 and 5 both hang off 1, with a tie between 0-1-2 and 0-3-2.
  expect_trees_match_reference(make_graph(
      6, {{0, 1, 1}, {1, 2, 1}, {0, 3, 1}, {3, 2, 1}, {1, 4, 1}, {1, 5, 1}}));
}

TEST(routing, random_graphs_match_reference) {
  // Small duplex graphs with weights 1-3, so ties are common, and with
  // leaves, parallel links and disconnected parts at random.
  sim::rng rng(2015);
  for (int trial = 0; trial < 200; ++trial) {
    const auto n = static_cast<std::size_t>(2 + rng.next_below(11));
    routing_graph g(n);
    const auto edges = rng.next_below(2 * n);
    for (std::uint64_t k = 0; k < edges; ++k) {
      const auto a = static_cast<node_id>(rng.next_below(n));
      const auto b = static_cast<node_id>(rng.next_below(n));
      if (a == b) continue;
      const auto w = static_cast<sim::time_ps>(1 + rng.next_below(3));
      g[a].push_back(routing_edge{b, w});
      g[b].push_back(routing_edge{a, w});
    }
    SCOPED_TRACE(trial);
    expect_trees_match_reference(g);
  }
}

}  // namespace
}  // namespace ups::net
