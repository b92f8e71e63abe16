// Test helper: shortest-path routes from their definition, sharing no code
// with net::shortest_path_tree.
//
// Distances come from Bellman-Ford (relax every edge until nothing
// changes). prev[v] is then the smallest u with dist[u] + w(u, v) ==
// dist[v], which is routing.h's stated tie-break; kInvalidNode for the
// source and for unreachable nodes, as in shortest_path_tree.
#pragma once

#include <cstddef>
#include <limits>
#include <vector>

#include "net/routing.h"

namespace ups::testing {

inline std::vector<net::node_id> reference_tree(const net::routing_graph& g,
                                                net::node_id s) {
  constexpr sim::time_ps inf = std::numeric_limits<sim::time_ps>::max();
  std::vector<sim::time_ps> dist(g.size(), inf);
  dist[static_cast<std::size_t>(s)] = 0;
  for (bool changed = true; changed;) {
    changed = false;
    for (std::size_t u = 0; u < g.size(); ++u) {
      if (dist[u] == inf) continue;
      for (const net::routing_edge& e : g[u]) {
        auto& d = dist[static_cast<std::size_t>(e.to)];
        if (dist[u] + e.weight < d) {
          d = dist[u] + e.weight;
          changed = true;
        }
      }
    }
  }
  std::vector<net::node_id> prev(g.size(), net::kInvalidNode);
  for (std::size_t u = 0; u < g.size(); ++u) {
    if (dist[u] == inf) continue;
    for (const net::routing_edge& e : g[u]) {
      const auto v = static_cast<std::size_t>(e.to);
      const auto from = static_cast<net::node_id>(u);
      if (dist[u] + e.weight == dist[v] &&
          (prev[v] == net::kInvalidNode || from < prev[v])) {
        prev[v] = from;
      }
    }
  }
  return prev;
}

// The s->t path (inclusive) in reference_tree(g, s); empty when t is
// unreachable.
inline std::vector<net::node_id> reference_path(
    const std::vector<net::node_id>& prev, net::node_id s, net::node_id t) {
  std::vector<net::node_id> back;
  for (net::node_id v = t; v != s; v = prev[static_cast<std::size_t>(v)]) {
    if (v == net::kInvalidNode) return {};
    back.push_back(v);
  }
  back.push_back(s);
  return {back.rbegin(), back.rend()};
}

}  // namespace ups::testing
