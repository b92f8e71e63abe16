// Deterministic Dijkstra shortest paths over the router graph.
#pragma once

#include <vector>

#include "net/packet.h"
#include "sim/time.h"

namespace ups::net {

struct routing_edge {
  node_id to;
  sim::time_ps weight;
};

using routing_graph = std::vector<std::vector<routing_edge>>;

// Shortest path from s to t (inclusive of both). Ties are broken toward the
// smaller predecessor id so routes are deterministic across runs.
// Returns an empty vector when t is unreachable.
[[nodiscard]] std::vector<node_id> shortest_path(const routing_graph& g,
                                                 node_id s, node_id t);

// Single-source shortest-path tree from s: prev[v] is v's predecessor on
// the (deterministically tie-broken, identical to shortest_path) shortest
// path from s, kInvalidNode when v is unreachable (and for s itself). The
// tie-break makes prev[v] the smallest tight predecessor of v, whatever
// the visit order. network::route() fills a source router's whole row of
// paths from one tree on that row's first lookup; a leaf router (one
// neighbour) reuses its neighbour's row, which this tie-break makes exact
// (see network.h). Replay never looks a route up.
[[nodiscard]] std::vector<node_id> shortest_path_tree(const routing_graph& g,
                                                      node_id s);

// Extracts the s->t path (inclusive) from a shortest_path_tree(g, s) result;
// empty when t is unreachable from s.
[[nodiscard]] std::vector<node_id> path_from_tree(
    const std::vector<node_id>& prev, node_id s, node_id t);

}  // namespace ups::net
