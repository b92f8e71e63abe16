// Deterministic Dijkstra shortest paths over the router graph.
#pragma once

#include <utility>
#include <vector>

#include "net/packet.h"
#include "sim/time.h"

namespace ups::net {

// Edge weights must be >= 1 (network's are propagation delay + 1 ps): the
// dead-end skip in shortest_path_tree relies on it.
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

// Working arrays of shortest_path_tree. A caller that builds many trees
// over one graph keeps one, so each array is allocated once.
struct dijkstra_scratch {
  std::vector<sim::time_ps> dist;
  std::vector<std::pair<sim::time_ps, node_id>> heap;
};

// Single-source shortest-path tree from s: prev[v] is v's predecessor on
// the (deterministically tie-broken, identical to shortest_path) shortest
// path from s, kInvalidNode when v is unreachable (and for s itself). The
// tie-break makes prev[v] the smallest tight predecessor of v, the smallest
// u with dist[u] + w(u, v) == dist[v], whatever the visit order.
// network::route() keeps one per source router and walks it per lookup.
//
// A node whose out-edges all lead back to the node that just reached it is
// a dead end: it gets its distance and predecessor but is never queued.
// Popping it could only relax that node, which is already final and, with
// weights >= 1, can be neither improved nor tied. On RocketFuel 830 of each
// tree's 913 routers are dead ends.
[[nodiscard]] std::vector<node_id> shortest_path_tree(
    const routing_graph& g, node_id s, dijkstra_scratch& scratch);
[[nodiscard]] std::vector<node_id> shortest_path_tree(const routing_graph& g,
                                                      node_id s);

// Extracts the s->t path (inclusive) from a shortest_path_tree(g, s) result;
// empty when t is unreachable from s.
[[nodiscard]] std::vector<node_id> path_from_tree(
    const std::vector<node_id>& prev, node_id s, node_id t);

}  // namespace ups::net
