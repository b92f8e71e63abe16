#include "net/routing.h"

#include <algorithm>
#include <functional>
#include <limits>

namespace ups::net {

namespace {
// False when every out-edge of a node leads to `from` (see routing.h).
bool leads_past(const std::vector<routing_edge>& out, node_id from) {
  return std::any_of(out.begin(), out.end(),
                     [from](const routing_edge& e) { return e.to != from; });
}
}  // namespace

std::vector<node_id> shortest_path_tree(const routing_graph& g, node_id s,
                                        dijkstra_scratch& scratch) {
  constexpr sim::time_ps inf = std::numeric_limits<sim::time_ps>::max();
  auto& dist = scratch.dist;
  auto& heap = scratch.heap;  // a min-heap under `later`
  const std::greater<> later;
  dist.assign(g.size(), inf);
  heap.clear();
  std::vector<node_id> prev(g.size(), kInvalidNode);
  dist[s] = 0;
  heap.emplace_back(0, s);
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), later);
    const auto [d, u] = heap.back();
    heap.pop_back();
    if (d > dist[u]) continue;
    for (const auto& e : g[u]) {
      const sim::time_ps nd = d + e.weight;
      if (nd < dist[e.to] ||
          (nd == dist[e.to] && prev[e.to] != kInvalidNode && u < prev[e.to])) {
        dist[e.to] = nd;
        prev[e.to] = u;
        if (leads_past(g[e.to], u)) {
          heap.emplace_back(nd, e.to);
          std::push_heap(heap.begin(), heap.end(), later);
        }
      }
    }
  }
  // Unreachable nodes keep prev == kInvalidNode; so does s (dist 0, no
  // predecessor) — path_from_tree treats s specially.
  return prev;
}

std::vector<node_id> shortest_path_tree(const routing_graph& g, node_id s) {
  dijkstra_scratch scratch;
  return shortest_path_tree(g, s, scratch);
}

std::vector<node_id> path_from_tree(const std::vector<node_id>& prev,
                                    node_id s, node_id t) {
  std::vector<node_id> path;
  for (node_id v = t; v != kInvalidNode; v = prev[v]) {
    path.push_back(v);
    if (v == s) break;
  }
  std::reverse(path.begin(), path.end());
  if (path.front() != s) return {};
  return path;
}

std::vector<node_id> shortest_path(const routing_graph& g, node_id s,
                                   node_id t) {
  return path_from_tree(shortest_path_tree(g, s), s, t);
}

}  // namespace ups::net
