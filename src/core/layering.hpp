#pragma once

/// \file layering.hpp
/// Step 2 of the incremental partitioner: the layering algorithm of
/// Figure 3 (Ou & Ranka §2.2).
///
/// Every vertex of partition i is labeled with the "closest outside
/// partition" L'(v): boundary vertices take the neighboring partition they
/// share the most edges with (layer 0), then layers grow inward level by
/// level, each vertex adopting the majority label among its already-labeled
/// neighbors in the previous layer.  The counts
///     ε_ij = |{v in partition i : L'(v) = j}|
/// upper-bound how many vertices partition i can cede to partition j in the
/// load-balancing LP (constraint 11), and the layer number orders vertices
/// so transfers peel from the boundary inward.
///
/// Layering is embarrassingly parallel across partitions — this is the
/// heart of the paper's parallelization — so an SPMD rank layers only the
/// partitions it owns (BoundaryLayering::reseed's owned_parts); within a
/// rank the partitions are layered one after another.
///
/// Two entry points share one BFS:
///   * layer_partitions() — the batch oracle: seeds layer 0 by scanning
///     every member of every partition, O(V+E) always.
///   * BoundaryLayering / layer_partitions_from() — the boundary-local
///     path: seeds layer 0 from the PartitionState's ordered boundary walk
///     in O(boundary), reading each seed's label from the state's cached
///     vertex analysis (only slots invalidated since the last analysis
///     are recomputed), and grows *resumably*: the balance driver
///     decides each stage on the seeds alone (layer 0, no grow()) and
///     requests deeper layers — max_layers, then doubling — only when the
///     staged LP turns out infeasible at the current depth.  Grown to
///     exhaustion it is bit-identical to layer_partitions (the parity
///     suite pins this).

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/part_tally.hpp"
#include "graph/graph.hpp"
#include "graph/partition.hpp"
#include "graph/partition_state.hpp"
#include "support/check.hpp"
#include "support/dense_matrix.hpp"

namespace pigp::core {

/// Result of layering all partitions.
struct LayeringResult {
  /// L'(v): closest outside partition, or -1 when the vertex's component
  /// never touches another partition (only possible in disconnected graphs).
  std::vector<graph::PartId> label;
  /// BFS depth from the partition boundary (0 = boundary vertex), or -1.
  std::vector<std::int32_t> layer;
  /// eps(i, j): movable-vertex counts per ordered partition pair.
  pigp::DenseMatrix<std::int64_t> eps;
};

/// Layer every partition.
[[nodiscard]] LayeringResult layer_partitions(const graph::Graph& g,
                                              const graph::Partitioning& p);

/// Not a setting: perfbench's probes, until ROADMAP item 1.
[[nodiscard]] inline LayeringResult layer_partitions(
    const graph::Graph& g, const graph::Partitioning& p, int /*threads*/) {
  return layer_partitions(g, p);
}

/// Reusable working buffers for the layering BFS — one partition's BFS
/// allocates nothing when handed a scratch that has been used before.  The
/// sparse tally makes each labelled vertex's vote cost O(deg), whatever the
/// part count.
struct LayerScratch {
  PartTally tally;
  std::vector<graph::VertexId> frontier;
  std::vector<graph::VertexId> next;
};

/// One O(deg) pass over the tally out(v, ·) of \p v's edge weight per
/// outside partition decides both the layer-0 seed label (the largest
/// tally; ties spread by v's hashed vertex key) and the best refinement
/// move (the largest gain out(v, j) - in(v) over tallies > 0; ties to the
/// smaller part).  nullopt when no neighbour lies in another partition.
/// Reads only the assignments of v and its neighbours, v's edge weights
/// and v's key, which never changes — the PartitionState's invalidation
/// rule rests on that, and so does its remap keeping every analysis.
/// \p tally is sized for p.num_parts, all-zero, and left all-zero.
[[nodiscard]] std::optional<graph::PartitionState::VertexAnalysis>
analyze_vertex(const graph::Graph& g, const graph::Partitioning& p,
               graph::VertexId v, PartTally& tally);

/// Boundary vertex \p v's analysis from \p state; an invalid slot is
/// analysed and filled first, and counted in \p analysed.  \p tally as
/// for analyze_vertex.  Inline: the boundary walks call it per vertex,
/// and a valid slot costs one load.
inline graph::PartitionState::VertexAnalysis cached_analysis(
    const graph::Graph& g, const graph::Partitioning& p,
    const graph::PartitionState& state, graph::VertexId v, PartTally& tally,
    std::int64_t& analysed) {
  if (const auto cached = state.analysis(v)) return *cached;
  const auto a = analyze_vertex(g, p, v, tally);
  PIGP_ASSERT(a);  // the boundary holds no interior vertex
  state.store_analysis(v, *a);
  ++analysed;
  return *a;
}

#if defined(PIGP_VALIDATE) || !defined(NDEBUG)
/// Debug / PIGP_VALIDATE auditor: each of \p vertices must have a valid
/// cached analysis equal to a from-scratch one; throws pigp::CheckError
/// otherwise.  Allocation-free (\p tally as for analyze_vertex).
void audit_analysis(const graph::Graph& g, const graph::Partitioning& p,
                    const graph::PartitionState& state,
                    std::span<const graph::VertexId> vertices,
                    PartTally& tally);
#endif

/// Vertices grouped by partition (index [q] lists partition q's vertices in
/// ascending id order).
[[nodiscard]] std::vector<std::vector<graph::VertexId>> partition_members(
    const graph::Partitioning& p);

/// Boundary-seeded, depth-capped, *resumable* layering.  One object is
/// constructed per balance call (allocating the per-vertex label/layer
/// arrays once), reseed() starts a stage by seeding layer 0 from an
/// ascending boundary list, and grow() advances every partition's BFS a
/// bounded number of levels — eps() always reflects exactly the vertices
/// labeled so far, so the balance LP can run on the seeds alone and lazily
/// request deeper layers.
///
/// Contract: \p p must be fully assigned and the state passed to reseed()
/// must describe (g, p); p must not change between reseed() and the last
/// grow() of a stage.  Grown to exhaustion the labels, layers and eps are
/// bit-identical to layer_partitions(g, p).
class BoundaryLayering {
 public:
  /// Empty; bind() before use.  A default-constructed instance living in a
  /// core::Workspace persists across repartitions — that is the hot path.
  BoundaryLayering() = default;

  /// Equivalent to default construction + bind(g, p).
  BoundaryLayering(const graph::Graph& g, const graph::Partitioning& p);

  /// Point the layering at (g, p) and make the arrays consistent: after
  /// invalidate(), take_result(), or a vertex-count change this performs
  /// one full O(V) reset; otherwise it only refreshes the pointers and
  /// grows the per-vertex arrays for appended ids (amortized), so a
  /// steady-state rebind costs O(1) and allocates nothing.  Must be called
  /// before the first reseed() of every balance run — the graph and
  /// partitioning may have moved since the last one.
  void bind(const graph::Graph& g, const graph::Partitioning& p);

  /// The vertex-id space was remapped (a delta with removals compacts
  /// ids): the labeled-vertex lists no longer address the entries they
  /// labeled, so the next bind() must fall back to a full reset.
  void invalidate() { dirty_ = true; }

  /// Deallocate everything (Workspace::release_memory); the next bind()
  /// re-creates the arrays with a full reset.
  void release();

  /// Reset the previous stage (O(labeled)) and seed layer 0 of every
  /// partition — or only of \p owned_parts when non-null (an SPMD rank
  /// owns a subset) — in one ascending walk of \p state's boundary, so
  /// every partition's seeds arrive in id order without a sort.  The same
  /// walk labels each seed with its cached analysis's seed; a seed whose
  /// slot is invalid is analysed and its slot filled.  \p state must
  /// describe (g, p).  Only seeds of owned partitions are analysed, so
  /// SPMD ranks owning disjoint partitions may reseed off one shared
  /// state at once.  Returns the number of seeds analysed (0 when nothing
  /// changed since the last analysis).  Debug / PIGP_VALIDATE builds
  /// audit every seed's cached analysis.
  std::int64_t reseed(const graph::PartitionState& state,
                      const std::vector<graph::PartId>* owned_parts = nullptr);

  /// Grow every non-exhausted seeded partition by up to \p levels more BFS
  /// levels (\p levels < 0: to exhaustion).
  void grow(int levels);

  /// Not a setting: perfbench's probes, until ROADMAP item 1.
  std::int64_t reseed(const graph::PartitionState& state, int /*threads*/) {
    return reseed(state);
  }
  /// Not a setting: perfbench's probes, until ROADMAP item 1.
  void grow(int levels, int /*threads*/) { grow(levels); }

  /// True when every seeded partition's BFS has run out of vertices —
  /// eps() equals the batch layering's eps.
  [[nodiscard]] bool exhausted() const;

  [[nodiscard]] const std::vector<graph::PartId>& label() const {
    return label_;
  }
  [[nodiscard]] const std::vector<std::int32_t>& layer() const {
    return layer_;
  }
  [[nodiscard]] const pigp::DenseMatrix<std::int64_t>& eps() const {
    return eps_;
  }
  /// Vertices of partition \p q labeled so far, in BFS discovery order
  /// (ascending within each level).
  [[nodiscard]] const std::vector<graph::VertexId>& labeled(
      graph::PartId q) const {
    return labeled_[static_cast<std::size_t>(q)];
  }
  /// Levels grown so far for partition \p q (0 = seeds only).
  [[nodiscard]] std::int32_t depth(graph::PartId q) const {
    return depth_[static_cast<std::size_t>(q)];
  }

  /// Move the arrays out as a batch-shaped LayeringResult.  Any further
  /// reseed() throws until bind() restores the arrays (with a full reset).
  [[nodiscard]] LayeringResult take_result();

 private:
  const graph::Graph* g_ = nullptr;
  const graph::Partitioning* p_ = nullptr;
  bool dirty_ = false;
  std::vector<graph::PartId> label_;
  std::vector<std::int32_t> layer_;
  pigp::DenseMatrix<std::int64_t> eps_;
  std::vector<std::vector<graph::VertexId>> frontier_;  ///< deepest level
  std::vector<std::vector<graph::VertexId>> labeled_;
  std::vector<std::int32_t> depth_;
  std::vector<graph::PartId> seeded_;  ///< partitions seeded this stage
  std::vector<std::uint8_t> seeded_mask_;  ///< [q] = 1 iff q is seeded
  LayerScratch scratch_;
};

/// Boundary-seeded layering of every partition to exhaustion — the
/// drop-in replacement for layer_partitions when a maintained
/// PartitionState is at hand: same result, O(boundary)-seeded instead of
/// an O(V) member scan per partition.
[[nodiscard]] LayeringResult layer_partitions_from(
    const graph::Graph& g, const graph::Partitioning& p,
    const graph::PartitionState& state);

}  // namespace pigp::core
