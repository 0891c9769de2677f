#pragma once

/// \file delta.hpp
/// Incremental graph modification — the G(V,E) → G'(V',E') step of §1.1.
///
/// The paper defines V' = V ∪ V1 − V2 and E' = E ∪ E1 − E2: a small number of
/// vertices and edges are added or deleted at each adaptation step.
/// GraphDelta captures one such step; apply_delta() materializes the new
/// graph and reports the id remapping (deletions compact vertex ids).

#include <utility>
#include <vector>

#include "graph/graph.hpp"

namespace pigp::graph {

/// One vertex being added, together with the edges that attach it.  Edge
/// endpoints may name existing vertices (id < n_old) or previously listed new
/// vertices (id >= n_old, in order of appearance in added_vertices).
struct VertexAddition {
  double weight = 1.0;
  std::vector<std::pair<VertexId, double>> edges;  ///< (endpoint, weight)
};

/// Canonical (min, max) key of the undirected edge {u, v} — the one
/// representation used for removed-edge lookups and dedup everywhere
/// (apply_delta and the Session counter accounting must agree on it).
[[nodiscard]] inline std::pair<VertexId, VertexId> canonical_edge(
    VertexId u, VertexId v) noexcept {
  return u < v ? std::make_pair(u, v) : std::make_pair(v, u);
}

/// A batch of incremental modifications to a graph.
struct GraphDelta {
  std::vector<VertexAddition> added_vertices;  ///< V1 with incident edges
  /// E1 edges between vertices that both survive the delta (old or new ids).
  std::vector<std::pair<VertexId, VertexId>> added_edges;
  std::vector<double> added_edge_weights;  ///< parallel to added_edges
  std::vector<VertexId> removed_vertices;  ///< V2 (old ids); incident edges go too
  std::vector<std::pair<VertexId, VertexId>> removed_edges;  ///< E2 (old ids)

  [[nodiscard]] bool has_removals() const noexcept {
    return !removed_vertices.empty() || !removed_edges.empty();
  }
};

/// Result of applying a delta.
struct DeltaResult {
  Graph graph;  ///< G'(V', E')
  /// old_to_new[v] is v's id in the new graph, or kInvalidVertex if deleted.
  std::vector<VertexId> old_to_new;
  /// Ids of the added vertices in the new graph, in addition order.
  std::vector<VertexId> new_vertex_ids;
  /// All surviving old vertices keep ids < first_new_vertex when there are no
  /// removals; with removals, ids are compacted in old order.
  VertexId first_new_vertex = 0;
};

/// Check \p delta against \p g without modifying anything; throws
/// pigp::CheckError on the first violation.  O(Δ log Δ) — independent of
/// graph size.  Rejected: out-of-range, dead, or removed-in-this-delta
/// vertex references, self-loops, negative vertex/edge weights, removed
/// edges that do not exist, vertex additions referencing later additions,
/// and an added_edge_weights array that is neither empty nor parallel to
/// added_edges.  Both apply_delta and the in-place Session::apply run this
/// up front, so a rejected delta leaves the graph untouched (strong
/// guarantee) and the two paths agree on what a malformed delta is.
void validate_delta(const Graph& g, const GraphDelta& delta);

/// Apply \p delta to \p g, producing a new graph (the from-scratch
/// reference path; Session::apply mutates in place instead).  Validates via
/// validate_delta() and additionally requires \p g to have no dead
/// (tombstoned) vertices — compact first.  Adding an edge that already
/// exists merges the weights (sum), mirroring GraphBuilder semantics.
/// Every result is one GraphBuilder rebuild — O(E log E) — so this is the
/// single oracle the in-place mutators are compared against.
[[nodiscard]] DeltaResult apply_delta(const Graph& g, const GraphDelta& delta);

// Forward declaration (partition.hpp includes graph.hpp only).
struct Partitioning;

/// Carry surviving vertices' partition assignments through the id remap of
/// \p applied.  The result covers exactly the surviving old vertices
/// (ids [0, applied.first_new_vertex)), ready for core::extend_assignment
/// to place the added vertices.
[[nodiscard]] Partitioning carry_partitioning(const Partitioning& old,
                                              const DeltaResult& applied);

}  // namespace pigp::graph
