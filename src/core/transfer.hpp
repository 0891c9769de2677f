#pragma once

/// \file transfer.hpp
/// Vertex selection for the LP-prescribed movements.
///
/// The LPs decide *how many* vertices move between each partition pair;
/// this module decides *which* ones.  Balance transfers take the vertices
/// closest to the receiving boundary (smallest layer number from Step 2),
/// preserving partition contiguity; refinement transfers take the highest
/// cut-gain candidates.

#include <cstdint>
#include <vector>

#include "core/layering.hpp"
#include "graph/graph.hpp"
#include "graph/partition.hpp"
#include "graph/partition_state.hpp"
#include "support/dense_matrix.hpp"

namespace pigp::core {

/// Pooled buffers of the balance-transfer selection (Workspace::transfer):
/// after warm-up a stage's selection allocates nothing.
struct TransferScratch {
  /// A labelled vertex with its selection keys.
  struct Ranked {
    std::int32_t layer = 0;
    bool overshoots = false;  ///< heavier than the pair's whole request
    double attraction = 0.0;
    graph::VertexId vertex = graph::kInvalidVertex;
  };
  /// [j]: the source's labelled vertices headed for j.  Only destinations
  /// with a positive move count are refilled; the rest hold stale data.
  std::vector<std::vector<graph::VertexId>> buckets;
  /// One destination's bucket with its keys, partially sorted.
  std::vector<Ranked> ranked;
  /// The selected vertices, appended by select_partition_transfers.
  std::vector<graph::VertexId> chosen;
};

/// Choose which vertices leave partition \p source, given the LP's
/// per-destination counts in \p move_row (length num_parts).  Selection
/// order: ascending layer (boundary first); within a layer, vertices no
/// heavier than the destination's whole count before those that would
/// overshoot it (weighted graphs only), then strongest attraction to the
/// destination (edge weight into it minus half the edge weight kept at
/// home); then vertex id.  Pure read-only on the graph and
/// partitioning — the SPMD driver relies on separating selection (reads)
/// from application (writes).  Appends to \p scratch.chosen, for every
/// destination j with move_row[j] > 0 in ascending order, its move_row[j]
/// movers; no other destination is touched.
void select_partition_transfers(const graph::Graph& g,
                                const graph::Partitioning& partitioning,
                                const std::vector<graph::PartId>& label,
                                const std::vector<std::int32_t>& layer,
                                const std::vector<graph::VertexId>& members,
                                graph::PartId source,
                                const std::int64_t* move_row,
                                TransferScratch& scratch);

/// Move moves(i, j) vertices from partition i to partition j using
/// select_partition_transfers.  Candidates come from the resumable
/// layering's labeled-vertex lists (O(labeled), not a full member sweep)
/// and every move goes through \p state so the aggregates and the boundary
/// index stay exact.  Selection reads only pre-move assignments: all pairs
/// are selected before the first write.  Throws pigp::CheckError when a
/// pair lacks enough labeled vertices (the LP bounds guarantee this never
/// happens with a layering computed on the same partitioning).  A non-null
/// \p scratch supplies the selection buffers; decisions are identical
/// either way.
void apply_balance_transfers(const graph::Graph& g,
                             graph::Partitioning& partitioning,
                             const BoundaryLayering& layering,
                             const pigp::DenseMatrix<std::int64_t>& moves,
                             graph::PartitionState& state,
                             TransferScratch* scratch = nullptr);

/// One refinement candidate: vertex v (in partition i) with its cut gain
/// out(v, j) - in(v) for moving to partition j.
struct GainCandidate {
  graph::VertexId vertex = graph::kInvalidVertex;
  double gain = 0.0;
};

/// Move moves(i, j) vertices using the candidate lists produced by the
/// refinement analysis, best gain first (ties on vertex id), routed
/// through \p state so the cut is maintained incrementally in O(deg) per
/// moved vertex — the refinement loop reads the post-round cut from the
/// state instead of an O(V+E) recompute.  Each pair's movers are picked
/// into \p selection (capacity reused) by a partial sort, without copying
/// the whole list.  To undo the batch in O(moved), open a
/// PartitionState::RollbackWindow before the call: every move goes through
/// state.move_vertex, so the window's journal records it.
void apply_gain_transfers(
    const graph::Graph& g, graph::Partitioning& partitioning,
    const pigp::DenseMatrix<std::vector<GainCandidate>>& candidates,
    const pigp::DenseMatrix<std::int64_t>& moves,
    graph::PartitionState& state, std::vector<GainCandidate>& selection);

}  // namespace pigp::core
