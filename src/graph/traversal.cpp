#include "graph/traversal.hpp"

#include <algorithm>
#include <atomic>

#include "support/check.hpp"
#include "support/omp.hpp"

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

NearestSourceResult nearest_source_labels(
    const Graph& g, std::span<const std::int32_t> seed_labels,
    int num_threads) {
  const VertexId n = g.num_vertices();
  PIGP_CHECK(seed_labels.size() == static_cast<std::size_t>(n),
             "seed label array must have one entry per vertex");

  NearestSourceResult result;
  result.distance.assign(static_cast<std::size_t>(n), kUnreached);
  result.label.assign(static_cast<std::size_t>(n), -1);

  std::vector<VertexId> frontier;
  for (VertexId v = 0; v < n; ++v) {
    if (seed_labels[static_cast<std::size_t>(v)] >= 0) {
      result.distance[static_cast<std::size_t>(v)] = 0;
      result.label[static_cast<std::size_t>(v)] =
          seed_labels[static_cast<std::size_t>(v)];
      frontier.push_back(v);
    }
  }

  std::vector<VertexId> next;
  // Lock-free claim array — the only concurrency in this function, so it
  // is documented rather than capability-annotated (runtime/sync.hpp has
  // no vocabulary for phase-based ownership):
  //   * within pass 1, threads race only on claimed[v]; the relaxed CAS
  //     just elects one winner per vertex, and the winner publishes v
  //     through its thread-private `local` list, not through shared state;
  //   * result.distance/.label are read-only in pass 1 and written in
  //     pass 2 only for vertices of `next` (disjoint per iteration);
  //   * the happens-before edge between the passes — and between levels —
  //     is the implicit barrier at the end of each omp parallel region,
  //     which is why relaxed ordering on the CAS suffices.
  std::vector<std::atomic<std::uint8_t>> claimed(static_cast<std::size_t>(n));
  std::int32_t level = 0;
  const bool parallel = num_threads > 1 && n > 2048;

  while (!frontier.empty()) {
    next.clear();
    // Pass 1: discover the next frontier (order-independent set).
    if (parallel) {
      std::vector<std::vector<VertexId>> local(
          static_cast<std::size_t>(num_threads));
      PIGP_OMP(parallel num_threads(num_threads))
      {
#ifdef _OPENMP
        const int tid = omp_get_thread_num();
#else
        const int tid = 0;
#endif
        auto& mine = local[static_cast<std::size_t>(tid)];
        PIGP_OMP(for schedule(dynamic, 64))
        for (std::int64_t i = 0;
             i < static_cast<std::int64_t>(frontier.size()); ++i) {
          const VertexId u = frontier[static_cast<std::size_t>(i)];
          for (VertexId v : g.neighbors(u)) {
            if (result.distance[static_cast<std::size_t>(v)] != kUnreached) {
              continue;
            }
            std::uint8_t expected = 0;
            if (claimed[static_cast<std::size_t>(v)].compare_exchange_strong(
                    expected, 1, std::memory_order_relaxed)) {
              mine.push_back(v);
            }
          }
        }
      }
      for (auto& mine : local) {
        next.insert(next.end(), mine.begin(), mine.end());
      }
      std::sort(next.begin(), next.end());
    } else {
      for (VertexId u : frontier) {
        for (VertexId v : g.neighbors(u)) {
          if (result.distance[static_cast<std::size_t>(v)] != kUnreached) {
            continue;
          }
          auto& flag = claimed[static_cast<std::size_t>(v)];
          if (flag.load(std::memory_order_relaxed) == 0) {
            flag.store(1, std::memory_order_relaxed);
            next.push_back(v);
          }
        }
      }
      std::sort(next.begin(), next.end());
    }

    // Pass 2: label each discovered vertex from its level-`level` neighbors.
    // The min-label rule makes the outcome independent of discovery order.
    PIGP_OMP(parallel for schedule(static) if (parallel)
                 num_threads(num_threads))
    for (std::int64_t i = 0; i < static_cast<std::int64_t>(next.size()); ++i) {
      const VertexId v = next[static_cast<std::size_t>(i)];
      std::int32_t best = -1;
      for (VertexId u : g.neighbors(v)) {
        if (result.distance[static_cast<std::size_t>(u)] == level) {
          const std::int32_t lu = result.label[static_cast<std::size_t>(u)];
          if (best < 0 || lu < best) best = lu;
        }
      }
      PIGP_ASSERT(best >= 0);
      result.distance[static_cast<std::size_t>(v)] = level + 1;
      result.label[static_cast<std::size_t>(v)] = best;
    }

    frontier.swap(next);
    ++level;
  }
  return result;
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
