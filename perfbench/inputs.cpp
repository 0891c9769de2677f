// Seeded workload generators: the travelling-hotspot mesh refinement
// sequence and the preferential-attachment churn stream.

#include <algorithm>
#include <cmath>
#include <numbers>
#include <random>
#include <utility>

#include "bench.hpp"
#include "mesh/adaptive.hpp"
#include "spectral/partitioners.hpp"

namespace perfbench {

namespace graph = pigp::graph;
using graph::VertexId;

constexpr std::uint64_t kBaseMeshSeed = 1;
constexpr std::uint64_t kBasePowerlawSeed = 1;

graph::Partitioning initial_partitioning(const graph::Graph& g, int parts) {
  return pigp::spectral::recursive_graph_bisection(g, parts);
}

graph::Graph mesh_graph(const pigp::mesh::TriMesh& mesh) {
  // Per-vertex neighbour lists straight from the triangles, then sorted
  // and deduplicated: the same graph as TriMesh::to_graph() without its
  // global edge sort, which dominates generation at 20k points.
  const auto n = static_cast<std::size_t>(mesh.num_points());
  std::vector<std::vector<VertexId>> adj(n);
  for (const pigp::mesh::Triangle& t : mesh.triangles()) {
    for (std::size_t i = 0; i < 3; ++i) {
      const VertexId u = t.vertices[i];
      const VertexId v = t.vertices[(i + 1) % 3];
      adj[static_cast<std::size_t>(u)].push_back(v);
      adj[static_cast<std::size_t>(v)].push_back(u);
    }
  }
  std::vector<graph::EdgeIndex> xadj(n + 1, 0);
  std::vector<VertexId> adjncy;
  adjncy.reserve(mesh.triangles().size() * 3);
  for (std::size_t v = 0; v < n; ++v) {
    std::vector<VertexId>& row = adj[v];
    std::sort(row.begin(), row.end());
    row.erase(std::unique(row.begin(), row.end()), row.end());
    adjncy.insert(adjncy.end(), row.begin(), row.end());
    xadj[v + 1] = static_cast<graph::EdgeIndex>(adjncy.size());
  }
  std::vector<double> edge_weights(adjncy.size(), 1.0);
  return graph::Graph(std::move(xadj), std::move(adjncy),
                      std::vector<double>(n, 1.0), std::move(edge_weights));
}

namespace {

/// Mirror of the session's graph for the generators: applies a delta
/// with the same graph operations, in the same order, as Session::apply,
/// and fires the same deferred-compaction trigger, so the ids the next
/// delta names are the ids the session will hold.
bool mirror_apply(graph::Graph& g, const graph::GraphDelta& delta,
                  double slack) {
  for (const VertexId v : delta.removed_vertices) g.remove_vertex(v);
  std::vector<std::pair<VertexId, VertexId>> cut;
  for (const auto& [u, v] : delta.removed_edges) {
    cut.push_back(graph::canonical_edge(u, v));
  }
  std::sort(cut.begin(), cut.end());
  cut.erase(std::unique(cut.begin(), cut.end()), cut.end());
  for (const auto& [u, v] : cut) (void)g.remove_edge(u, v);
  for (const graph::VertexAddition& add : delta.added_vertices) {
    const VertexId self = g.add_vertex(add.weight);
    for (const auto& [endpoint, w] : add.edges) {
      (void)g.insert_edge(self, endpoint, w);
    }
  }
  for (std::size_t i = 0; i < delta.added_edges.size(); ++i) {
    const auto [u, v] = delta.added_edges[i];
    (void)g.insert_edge(
        u, v,
        delta.added_edge_weights.empty() ? 1.0 : delta.added_edge_weights[i]);
  }
  const auto ids = static_cast<double>(g.num_vertices());
  const auto cap = static_cast<double>(g.adjacency_capacity());
  const bool compact =
      static_cast<double>(g.num_dead_vertices()) > slack * ids ||
      (cap > 0.0 && static_cast<double>(g.adjacency_slack()) > slack * cap);
  if (compact) {
    std::vector<VertexId> old_to_new;
    (void)g.compact(old_to_new);
  }
  return compact;
}

}  // namespace

Inputs make_mesh_inputs(const MeshParams& params, std::uint64_t seed,
                        int parts, double compaction_slack) {
  Inputs in;
  // The base point set is the same for every seed; the seed drives the
  // refinement stream.  Partition quality then varies across seeds only
  // with the stream, so the cut can be gated tightly.
  pigp::mesh::AdaptiveMesh amesh =
      pigp::mesh::AdaptiveMesh::random(params.initial_points, kBaseMeshSeed);
  in.g0 = mesh_graph(amesh.snapshot());
  in.p0 = initial_partitioning(in.g0, parts);

  // The hotspot walks one period of a sine across the square, so every
  // burst lands next to the previous one: each delta is local, and the
  // refined region never piles up in one spot.
  graph::Graph before = in.g0;
  graph::Graph mirror = in.g0;
  for (int step = 0; step < params.steps; ++step) {
    const double t =
        params.steps > 1 ? static_cast<double>(step) / (params.steps - 1) : 0;
    pigp::mesh::RefineOptions refine;
    refine.center = {0.1 + 0.8 * t,
                     0.5 + 0.3 * std::sin(2.0 * std::numbers::pi * t)};
    refine.radius = params.radius;
    refine.count = params.points_per_step;
    refine.seed = seed * 1000003ULL + static_cast<std::uint64_t>(step);
    (void)amesh.refine_near(refine);
    graph::Graph after = mesh_graph(amesh.snapshot());
    graph::GraphDelta delta = pigp::mesh::graph_delta(before, after);
    graph::validate_delta(before, delta);
    in.compacts.push_back(mirror_apply(mirror, delta, compaction_slack) ? 1
                                                                         : 0);
    in.deltas.push_back(std::move(delta));
    before = std::move(after);
  }
  in.final_graph = std::move(before);
  return in;
}

namespace {

/// Degree-proportional sampling: every edge contributes both endpoints to
/// the urn, so a uniform draw picks a vertex with probability ∝ degree.
/// Stale entries (dead vertices, renumbered ids) are refreshed by
/// rebuilding the urn from the mirror graph.
class AttachmentUrn {
 public:
  void rebuild(const graph::Graph& g) {
    urn_.clear();
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      if (!g.is_live(v)) continue;
      urn_.push_back(v);  // +1 smoothing: isolated vertices stay reachable
      for (std::size_t k = 0; k < g.neighbors(v).size(); ++k) {
        urn_.push_back(v);
      }
    }
  }
  void add(VertexId v) { urn_.push_back(v); }
  [[nodiscard]] VertexId draw(std::mt19937_64& rng) const {
    std::uniform_int_distribution<std::size_t> pick(0, urn_.size() - 1);
    return urn_[pick(rng)];
  }

 private:
  std::vector<VertexId> urn_;
};

graph::Graph preferential_attachment(int n, int m, std::mt19937_64& rng) {
  std::vector<std::vector<VertexId>> adj(static_cast<std::size_t>(n));
  std::vector<VertexId> urn;
  const int core = m + 1;  // a clique to attach to
  for (VertexId u = 0; u < core; ++u) {
    for (VertexId v = u + 1; v < core; ++v) {
      adj[static_cast<std::size_t>(u)].push_back(v);
      adj[static_cast<std::size_t>(v)].push_back(u);
      urn.push_back(u);
      urn.push_back(v);
    }
  }
  std::vector<VertexId> targets;
  for (VertexId v = core; v < n; ++v) {
    targets.clear();
    while (static_cast<int>(targets.size()) < m) {
      std::uniform_int_distribution<std::size_t> pick(0, urn.size() - 1);
      const VertexId t = urn[pick(rng)];
      if (std::find(targets.begin(), targets.end(), t) == targets.end()) {
        targets.push_back(t);
      }
    }
    for (const VertexId t : targets) {
      adj[static_cast<std::size_t>(v)].push_back(t);
      adj[static_cast<std::size_t>(t)].push_back(v);
      urn.push_back(v);
      urn.push_back(t);
    }
  }
  std::vector<graph::EdgeIndex> xadj(static_cast<std::size_t>(n) + 1, 0);
  std::vector<VertexId> adjncy;
  for (VertexId v = 0; v < n; ++v) {
    auto& row = adj[static_cast<std::size_t>(v)];
    std::sort(row.begin(), row.end());
    adjncy.insert(adjncy.end(), row.begin(), row.end());
    xadj[static_cast<std::size_t>(v) + 1] =
        static_cast<graph::EdgeIndex>(adjncy.size());
  }
  std::vector<double> edge_weights(adjncy.size(), 1.0);
  return graph::Graph(std::move(xadj), std::move(adjncy),
                      std::vector<double>(static_cast<std::size_t>(n), 1.0),
                      std::move(edge_weights));
}

}  // namespace

Inputs make_powerlaw_inputs(const PowerlawParams& params, std::uint64_t seed,
                            int parts, double compaction_slack) {
  Inputs in;
  // As for the mesh, the base graph is the same for every seed and the
  // seed drives the churn stream, so the rebalance cost varies across
  // seeds only with the stream.
  std::mt19937_64 base_rng(kBasePowerlawSeed);
  in.g0 = preferential_attachment(params.initial_vertices,
                                  params.edges_per_vertex, base_rng);
  in.p0 = initial_partitioning(in.g0, parts);
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ULL + 17);

  graph::Graph mirror = in.g0;
  AttachmentUrn urn;
  urn.rebuild(mirror);
  std::vector<VertexId> live;
  std::vector<char> doomed;  // removed by the delta being built
  // Stop at the first delta, at or after the requested count, that trips
  // the session's vertex_count trigger: every replay of the stream then
  // ends on a rebalance.
  std::int64_t pending = 0;
  for (int d = 0;; ++d) {
    if (d >= params.deltas && pending == 0) break;
    live.clear();
    for (VertexId v = 0; v < mirror.num_vertices(); ++v) {
      if (mirror.is_live(v)) live.push_back(v);
    }
    doomed.assign(static_cast<std::size_t>(mirror.num_vertices()), 0);
    graph::GraphDelta delta;

    const bool hub_delta = params.hub_every > 0 && d % params.hub_every == 0;
    if (hub_delta) {
      VertexId hub = live.front();
      for (const VertexId v : live) {
        if (mirror.degree(v) > mirror.degree(hub)) hub = v;
      }
      delta.removed_vertices.push_back(hub);
      doomed[static_cast<std::size_t>(hub)] = 1;
      const double mean_degree = 2.0 * static_cast<double>(mirror.num_edges()) /
                                 static_cast<double>(live.size());
      if (static_cast<double>(mirror.degree(hub)) >= 10.0 * mean_degree) {
        ++in.hub_removals;
      }
    }
    std::uniform_int_distribution<std::size_t> pick_live(0, live.size() - 1);
    const int victims = params.removed_per_delta + (hub_delta ? 1 : 0);
    while (static_cast<int>(delta.removed_vertices.size()) < victims) {
      const VertexId v = live[pick_live(rng)];
      if (doomed[static_cast<std::size_t>(v)]) continue;
      doomed[static_cast<std::size_t>(v)] = 1;
      delta.removed_vertices.push_back(v);
    }

    // Edge cuts between survivors.
    int attempts = 0;
    while (static_cast<int>(delta.removed_edges.size()) <
               params.cut_edges_per_delta &&
           attempts++ < 100 * params.cut_edges_per_delta) {
      const VertexId u = live[pick_live(rng)];
      const auto nbrs = mirror.neighbors(u);
      if (doomed[static_cast<std::size_t>(u)] || nbrs.empty()) continue;
      std::uniform_int_distribution<std::size_t> pick_nbr(0, nbrs.size() - 1);
      const VertexId v = nbrs[pick_nbr(rng)];
      if (doomed[static_cast<std::size_t>(v)]) continue;
      const auto edge = graph::canonical_edge(u, v);
      if (std::find(delta.removed_edges.begin(), delta.removed_edges.end(),
                    edge) != delta.removed_edges.end()) {
        continue;
      }
      delta.removed_edges.push_back(edge);
    }

    // Preferential-attachment arrivals onto surviving old vertices.
    for (int a = 0; a < params.added_per_delta; ++a) {
      graph::VertexAddition add;
      while (static_cast<int>(add.edges.size()) < params.edges_per_vertex) {
        const VertexId t = urn.draw(rng);
        if (t >= mirror.num_vertices() || !mirror.is_live(t) ||
            doomed[static_cast<std::size_t>(t)]) {
          continue;
        }
        if (std::find_if(add.edges.begin(), add.edges.end(),
                         [t](const auto& e) { return e.first == t; }) !=
            add.edges.end()) {
          continue;
        }
        add.edges.emplace_back(t, 1.0);
      }
      delta.added_vertices.push_back(std::move(add));
    }

    graph::validate_delta(mirror, delta);
    const VertexId first_new = mirror.num_vertices();
    const bool compacted =
        mirror_apply(mirror, delta, compaction_slack);
    in.compacts.push_back(compacted ? 1 : 0);
    if (compacted || d % 32 == 31) {
      urn.rebuild(mirror);  // drop dead / renumbered entries
    } else {
      for (std::size_t a = 0; a < delta.added_vertices.size(); ++a) {
        const auto self = first_new + static_cast<VertexId>(a);
        for (const auto& [t, w] : delta.added_vertices[a].edges) {
          urn.add(self);
          urn.add(t);
        }
      }
    }
    pending += static_cast<std::int64_t>(delta.added_vertices.size() +
                                         delta.removed_vertices.size());
    if (pending >= params.batch_vertex_limit) pending = 0;
    in.deltas.push_back(std::move(delta));
  }
  in.final_graph = std::move(mirror);
  return in;
}

}  // namespace perfbench
