#include "graph/traversal.hpp"

#include "support/check.hpp"

namespace pigp::graph {

std::vector<std::int32_t> bfs_distances(const Graph& g,
                                        std::span<const VertexId> sources) {
  const VertexId n = g.num_vertices();
  std::vector<std::int32_t> dist(static_cast<std::size_t>(n), kUnreached);
  std::vector<VertexId> frontier;
  frontier.reserve(sources.size());
  for (VertexId s : sources) {
    PIGP_CHECK(s >= 0 && s < n, "BFS source out of range");
    if (dist[static_cast<std::size_t>(s)] == kUnreached) {
      dist[static_cast<std::size_t>(s)] = 0;
      frontier.push_back(s);
    }
  }

  std::vector<VertexId> next;
  std::int32_t level = 0;
  while (!frontier.empty()) {
    next.clear();
    for (VertexId u : frontier) {
      for (VertexId v : g.neighbors(u)) {
        auto& d = dist[static_cast<std::size_t>(v)];
        if (d == kUnreached) {
          d = level + 1;
          next.push_back(v);
        }
      }
    }
    frontier.swap(next);
    ++level;
  }
  return dist;
}

std::vector<VertexId> bfs_order(const Graph& g, VertexId root) {
  const VertexId n = g.num_vertices();
  PIGP_CHECK(root >= 0 && root < n, "BFS root out of range");
  std::vector<bool> seen(static_cast<std::size_t>(n), false);
  std::vector<VertexId> order;
  order.reserve(static_cast<std::size_t>(n));
  order.push_back(root);
  seen[static_cast<std::size_t>(root)] = true;
  for (std::size_t head = 0; head < order.size(); ++head) {
    for (VertexId v : g.neighbors(order[head])) {
      if (!seen[static_cast<std::size_t>(v)]) {
        seen[static_cast<std::size_t>(v)] = true;
        order.push_back(v);
      }
    }
  }
  return order;
}

VertexId pseudo_peripheral_vertex(const Graph& g, VertexId root) {
  VertexId current = root;
  std::int32_t ecc = -1;
  for (int round = 0; round < 8; ++round) {
    const std::vector<VertexId> sources = {current};
    const auto dist = bfs_distances(g, sources);
    VertexId farthest = current;
    std::int32_t far_dist = 0;
    EdgeIndex far_degree = g.degree(current);
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      const std::int32_t d = dist[static_cast<std::size_t>(v)];
      if (d == kUnreached) continue;
      // Prefer the farthest vertex; among ties, the lowest degree (classic
      // Gibbs–Poole–Stockmeyer tie-break), then the smallest id.
      if (d > far_dist ||
          (d == far_dist && (g.degree(v) < far_degree ||
                             (g.degree(v) == far_degree && v < farthest)))) {
        farthest = v;
        far_dist = d;
        far_degree = g.degree(v);
      }
    }
    if (far_dist <= ecc) break;
    ecc = far_dist;
    current = farthest;
  }
  return current;
}

}  // namespace pigp::graph
