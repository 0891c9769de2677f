#include "graph/delta.hpp"

#include <algorithm>

#include "graph/builder.hpp"
#include "graph/partition.hpp"
#include "support/check.hpp"

namespace pigp::graph {

void validate_delta(const Graph& g, const GraphDelta& delta) {
  const VertexId n_old = g.num_vertices();
  std::vector<VertexId> removed = delta.removed_vertices;
  for (const VertexId v : removed) {
    PIGP_CHECK(v >= 0 && v < n_old, "removed vertex out of range");
    PIGP_CHECK(g.is_live(v), "removed vertex is already dead");
  }
  std::sort(removed.begin(), removed.end());
  const auto is_removed = [&removed](VertexId v) {
    return std::binary_search(removed.begin(), removed.end(), v);
  };
  for (const auto& [u, v] : delta.removed_edges) {
    PIGP_CHECK(u >= 0 && u < n_old && v >= 0 && v < n_old,
               "removed edge endpoint out of range");
    PIGP_CHECK(g.has_edge(u, v), "removed edge does not exist");
  }
  // An old-graph endpoint must survive the delta; a >= n_old endpoint names
  // an added vertex.
  const auto check_endpoint = [&](VertexId id) {
    if (id < n_old) {
      PIGP_CHECK(g.is_live(id), "edge references a dead vertex");
      PIGP_CHECK(!is_removed(id), "edge references removed vertex");
    }
  };
  for (std::size_t i = 0; i < delta.added_vertices.size(); ++i) {
    const VertexAddition& add = delta.added_vertices[i];
    PIGP_CHECK(add.weight >= 0.0, "vertex weight must be non-negative");
    const VertexId self = n_old + static_cast<VertexId>(i);
    for (const auto& [endpoint, weight] : add.edges) {
      PIGP_CHECK(endpoint >= 0, "delta vertex id out of range");
      PIGP_CHECK(endpoint < self + 1,
                 "vertex addition references a later vertex");
      PIGP_CHECK(endpoint != self, "self-loop in vertex addition");
      PIGP_CHECK(weight >= 0.0, "edge weight must be non-negative");
      check_endpoint(endpoint);
    }
  }
  PIGP_CHECK(delta.added_edges.size() == delta.added_edge_weights.size() ||
                 delta.added_edge_weights.empty(),
             "added edge weights must be empty or parallel to added_edges");
  const auto total_ids =
      n_old + static_cast<VertexId>(delta.added_vertices.size());
  for (std::size_t i = 0; i < delta.added_edges.size(); ++i) {
    const auto [u, v] = delta.added_edges[i];
    PIGP_CHECK(u >= 0 && u < total_ids && v >= 0 && v < total_ids,
               "delta vertex id out of range");
    PIGP_CHECK(u != v, "self-loops are not allowed");
    const double w =
        delta.added_edge_weights.empty() ? 1.0 : delta.added_edge_weights[i];
    PIGP_CHECK(w >= 0.0, "edge weight must be non-negative");
    check_endpoint(u);
    check_endpoint(v);
  }
}

DeltaResult apply_delta(const Graph& g, const GraphDelta& delta) {
  PIGP_CHECK(g.num_dead_vertices() == 0,
             "apply_delta requires a compacted graph (no dead vertices)");
  validate_delta(g, delta);
  const VertexId n_old = g.num_vertices();

  std::vector<bool> removed(static_cast<std::size_t>(n_old), false);
  for (VertexId v : delta.removed_vertices) {
    PIGP_CHECK(v >= 0 && v < n_old, "removed vertex out of range");
    removed[static_cast<std::size_t>(v)] = true;
  }

  std::vector<std::pair<VertexId, VertexId>> removed_edges;
  removed_edges.reserve(delta.removed_edges.size());
  for (const auto& [u, v] : delta.removed_edges) {
    PIGP_CHECK(u >= 0 && u < n_old && v >= 0 && v < n_old,
               "removed edge endpoint out of range");
    PIGP_CHECK(g.has_edge(u, v), "removed edge does not exist");
    removed_edges.push_back(canonical_edge(u, v));
  }
  std::sort(removed_edges.begin(), removed_edges.end());
  const auto edge_removed = [&removed_edges](VertexId u, VertexId v) {
    return std::binary_search(removed_edges.begin(), removed_edges.end(),
                              canonical_edge(u, v));
  };

  // Compact surviving old vertices, then append the new ones.
  DeltaResult result;
  result.old_to_new.assign(static_cast<std::size_t>(n_old), kInvalidVertex);
  GraphBuilder builder;
  for (VertexId v = 0; v < n_old; ++v) {
    if (!removed[static_cast<std::size_t>(v)]) {
      result.old_to_new[static_cast<std::size_t>(v)] =
          builder.add_vertex(g.vertex_weight(v));
    }
  }
  result.first_new_vertex = builder.num_vertices();
  result.new_vertex_ids.reserve(delta.added_vertices.size());
  for (const VertexAddition& add : delta.added_vertices) {
    result.new_vertex_ids.push_back(builder.add_vertex(add.weight));
  }

  // Resolve a delta-space id (old id or n_old + index-of-added-vertex) to a
  // new-graph id.
  const auto total_ids =
      n_old + static_cast<VertexId>(delta.added_vertices.size());
  const auto resolve = [&](VertexId id) -> VertexId {
    PIGP_CHECK(id >= 0 && id < total_ids, "delta vertex id out of range");
    if (id < n_old) {
      const VertexId mapped = result.old_to_new[static_cast<std::size_t>(id)];
      PIGP_CHECK(mapped != kInvalidVertex, "edge references removed vertex");
      return mapped;
    }
    return result.new_vertex_ids[static_cast<std::size_t>(id - n_old)];
  };

  // Surviving old edges.
  for (VertexId u = 0; u < n_old; ++u) {
    if (removed[static_cast<std::size_t>(u)]) continue;
    const auto nbrs = g.neighbors(u);
    const auto weights = g.incident_edge_weights(u);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const VertexId v = nbrs[i];
      if (v <= u) continue;  // each undirected edge once
      if (removed[static_cast<std::size_t>(v)]) continue;
      if (edge_removed(u, v)) continue;
      builder.add_edge(result.old_to_new[static_cast<std::size_t>(u)],
                       result.old_to_new[static_cast<std::size_t>(v)],
                       weights[i]);
    }
  }

  // Edges attached to new vertices.
  for (std::size_t i = 0; i < delta.added_vertices.size(); ++i) {
    const VertexId self = result.new_vertex_ids[i];
    for (const auto& [endpoint, weight] : delta.added_vertices[i].edges) {
      // Only ids introduced at or before this addition may be referenced, so
      // each undirected edge appears exactly once.
      PIGP_CHECK(endpoint < n_old + static_cast<VertexId>(i) + 1,
                 "vertex addition references a later vertex");
      const VertexId other = resolve(endpoint);
      PIGP_CHECK(other != self, "self-loop in vertex addition");
      builder.add_edge(self, other, weight);
    }
  }

  // Standalone added edges.
  PIGP_CHECK(delta.added_edges.size() == delta.added_edge_weights.size() ||
                 delta.added_edge_weights.empty(),
             "added edge weights must be empty or parallel to added_edges");
  for (std::size_t i = 0; i < delta.added_edges.size(); ++i) {
    const auto [u, v] = delta.added_edges[i];
    const double w =
        delta.added_edge_weights.empty() ? 1.0 : delta.added_edge_weights[i];
    builder.add_edge(resolve(u), resolve(v), w);
  }

  result.graph = builder.build();
  // Survivors keep their vertex keys and the additions take \p g's next
  // keys in order: the keys add_vertex, remove_vertex and compact() give
  // the mutable graph for the same delta.
  std::vector<std::uint32_t> keys;
  keys.reserve(static_cast<std::size_t>(result.graph.num_vertices()));
  for (VertexId v = 0; v < n_old; ++v) {
    if (!removed[static_cast<std::size_t>(v)]) keys.push_back(g.vertex_key(v));
  }
  std::uint32_t next_key = g.next_vertex_key();
  for (std::size_t i = 0; i < delta.added_vertices.size(); ++i) {
    keys.push_back(next_key++);
  }
  result.graph.set_vertex_keys(std::move(keys), next_key);
  return result;
}

Partitioning carry_partitioning(const Partitioning& old,
                                const DeltaResult& applied) {
  Partitioning carried;
  carried.num_parts = old.num_parts;
  // Surviving old vertices occupy ids [0, first_new_vertex); the added
  // vertices come after and are left for extend_assignment to place.
  carried.part.assign(static_cast<std::size_t>(applied.first_new_vertex),
                      kUnassigned);
  for (std::size_t v = 0; v < applied.old_to_new.size(); ++v) {
    const VertexId mapped = applied.old_to_new[v];
    if (mapped != kInvalidVertex) {
      carried.part[static_cast<std::size_t>(mapped)] = old.part[v];
    }
  }
  return carried;
}

}  // namespace pigp::graph
