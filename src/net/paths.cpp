#include "net/paths.h"

#include <algorithm>
#include <limits>
#include <queue>

namespace metaopt::net {

double Path::weight(const Topology& topo) const {
  double w = 0.0;
  for (EdgeId e : edges) w += topo.edge(e).weight;
  return w;
}

std::vector<NodeId> Path::nodes(const Topology& topo) const {
  std::vector<NodeId> out;
  if (edges.empty()) return out;
  out.push_back(topo.edge(edges.front()).src);
  for (EdgeId e : edges) out.push_back(topo.edge(e).dst);
  return out;
}

std::optional<Path> shortest_path(const Topology& topo, NodeId s, NodeId t,
                                  const std::vector<bool>* banned_edges,
                                  const std::vector<bool>* banned_nodes) {
  const int n = topo.num_nodes();
  constexpr double kUnreached = std::numeric_limits<double>::infinity();
  std::vector<double> dist(n, kUnreached);
  std::vector<EdgeId> parent_edge(n, -1);
  std::vector<bool> done(n, false);

  using QItem = std::pair<double, NodeId>;  // (dist, node)
  std::priority_queue<QItem, std::vector<QItem>, std::greater<>> pq;
  if (banned_nodes && (*banned_nodes)[s]) return std::nullopt;
  dist[s] = 0.0;
  pq.emplace(0.0, s);

  while (!pq.empty()) {
    const auto [d, u] = pq.top();
    pq.pop();
    if (done[u]) continue;
    done[u] = true;
    if (u == t) break;
    for (EdgeId eid : topo.out_edges(u)) {
      if (banned_edges && (*banned_edges)[eid]) continue;
      const Edge& e = topo.edge(eid);
      if (banned_nodes && (*banned_nodes)[e.dst]) continue;
      const double nd = d + e.weight;
      // Deterministic tie-break: keep the first (smallest edge id) path.
      if (nd < dist[e.dst] - 1e-12) {
        dist[e.dst] = nd;
        parent_edge[e.dst] = eid;
        pq.emplace(nd, e.dst);
      }
    }
  }
  if (dist[t] == kUnreached) return std::nullopt;

  Path path;
  for (NodeId cur = t; cur != s;) {
    const EdgeId eid = parent_edge[cur];
    path.edges.push_back(eid);
    cur = topo.edge(eid).src;
  }
  std::reverse(path.edges.begin(), path.edges.end());
  return path;
}

std::vector<Path> k_shortest_paths(const Topology& topo, NodeId s, NodeId t,
                                   int k) {
  std::vector<Path> result;
  if (k <= 0 || s == t) return result;
  auto first = shortest_path(topo, s, t);
  if (!first) return result;
  result.push_back(std::move(*first));

  // Candidate pool, ordered by (weight, hops) for determinism.
  std::vector<Path> candidates;
  std::vector<bool> banned_edges(topo.num_edges(), false);
  std::vector<bool> banned_nodes(topo.num_nodes(), false);

  while (static_cast<int>(result.size()) < k) {
    const Path& prev = result.back();
    const std::vector<NodeId> prev_nodes = prev.nodes(topo);

    // Spur from every node of the previous path except the terminal.
    for (std::size_t i = 0; i + 1 < prev_nodes.size(); ++i) {
      const NodeId spur_node = prev_nodes[i];
      // Root = prev[0..i) edges.
      Path root;
      root.edges.assign(prev.edges.begin(),
                        prev.edges.begin() + static_cast<long>(i));

      std::fill(banned_edges.begin(), banned_edges.end(), false);
      std::fill(banned_nodes.begin(), banned_nodes.end(), false);
      // Ban the next edge of every accepted path sharing this root.
      for (const Path& p : result) {
        if (p.edges.size() >= i &&
            std::equal(root.edges.begin(), root.edges.end(),
                       p.edges.begin()) &&
            p.edges.size() > i) {
          banned_edges[p.edges[i]] = true;
        }
      }
      // Ban root nodes (loopless requirement), except the spur node.
      for (std::size_t j = 0; j < i; ++j) banned_nodes[prev_nodes[j]] = true;

      auto spur = shortest_path(topo, spur_node, t, &banned_edges,
                                &banned_nodes);
      if (!spur) continue;
      Path total = root;
      total.edges.insert(total.edges.end(), spur->edges.begin(),
                         spur->edges.end());
      if (std::find(candidates.begin(), candidates.end(), total) ==
              candidates.end() &&
          std::find(result.begin(), result.end(), total) == result.end()) {
        candidates.push_back(std::move(total));
      }
    }
    if (candidates.empty()) break;
    const auto best = std::min_element(
        candidates.begin(), candidates.end(),
        [&](const Path& a, const Path& b) {
          const double wa = a.weight(topo), wb = b.weight(topo);
          if (wa != wb) return wa < wb;
          if (a.hops() != b.hops()) return a.hops() < b.hops();
          return a.edges < b.edges;
        });
    result.push_back(*best);
    candidates.erase(best);
  }
  return result;
}

double average_shortest_path_length(const Topology& topo) {
  double total = 0.0;
  long pairs = 0;
  for (NodeId s = 0; s < topo.num_nodes(); ++s) {
    for (NodeId t = 0; t < topo.num_nodes(); ++t) {
      if (s == t) continue;
      if (auto p = shortest_path(topo, s, t)) {
        total += p->weight(topo);
        ++pairs;
      }
    }
  }
  return pairs ? total / static_cast<double>(pairs) : 0.0;
}

}  // namespace metaopt::net
