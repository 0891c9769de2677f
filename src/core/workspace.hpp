#pragma once

/// \file workspace.hpp
/// Session-lifetime reusable buffers — the steady-state memory discipline
/// of the streaming path.
///
/// PR 4 made the *work* of a repartition proportional to the boundary; the
/// remaining per-repartition O(V) costs were pure memory churn: the
/// multi-source BFS arrays of the assignment step, the partitioning copy
/// in the driver, and the per-call label/layer allocation of the
/// boundary-seeded layering.  A Workspace owns all of that storage for the
/// lifetime of a pigp::Session and hands it to every phase of the
/// pipeline, so a steady-state repartition (warm buffers, no vertex-count
/// growth) performs zero heap allocations — a property pinned by the
/// smoke-labeled allocation-count test in tests/api/test_session_alloc.cpp
/// and documented in docs/ARCHITECTURE.md ("Workspace & steady-state
/// memory discipline").
///
/// Clearing discipline: per-vertex BFS arrays are epoch-versioned
/// (EpochArray) so "reset everything" is a generation bump, not an O(V)
/// memset; the persistent BoundaryLayering resets itself in O(labeled) via
/// its labeled-vertex lists.  Vertex-id *remaps* (a delta with removals
/// compacts ids) invalidate id-addressed persistent state — callers must
/// announce them through invalidate_vertex_ids(), which schedules the one
/// full reset the layering then performs on its next bind.  The
/// per-vertex analyses that seeding and refinement read are not workspace
/// state: the PartitionState owns them, invalidates them in its mutators
/// and carries them through its own remap.
///
/// Phases that may still allocate (all proportional to actual work, never
/// to |V|): the per-stage BalanceStage record, pooled-buffer growth when
/// the graph grows or a stage selects more than any before it
/// (amortized), the orphan-component fallback of the assignment step, and
/// everything on error paths.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/balance.hpp"
#include "core/layering.hpp"
#include "core/part_tally.hpp"
#include "core/transfer.hpp"
#include "graph/graph.hpp"
#include "graph/partition.hpp"
#include "graph/partition_state.hpp"
#include "support/dense_matrix.hpp"

namespace pigp::core {

/// Per-vertex array with O(1) logical clear: every slot carries a
/// generation stamp, and clear() bumps the current generation so all slots
/// become stale at once.  Growth only ever extends the arrays (new slots
/// are stale); there is no O(V) reset anywhere on the steady-state path.
template <typename T>
class EpochArray {
 public:
  /// Grow to at least \p n slots (never shrinks — ids may be reused after
  /// a remap, and stale stamps make old values invisible automatically).
  void ensure(std::size_t n) {
    if (value_.size() < n) {
      value_.resize(n);
      stamp_.resize(n, 0);
    }
  }

  /// Logically clear every slot.  O(1) except once every 2^32 clears.
  void clear() {
    if (++epoch_ == 0) {  // wrapped: make the stale stamps really stale
      std::fill(stamp_.begin(), stamp_.end(), 0);
      epoch_ = 1;
    }
  }

  [[nodiscard]] bool contains(std::size_t i) const {
    return stamp_[i] == epoch_;
  }
  [[nodiscard]] T get(std::size_t i) const { return value_[i]; }
  [[nodiscard]] T get_or(std::size_t i, T fallback) const {
    return contains(i) ? value_[i] : fallback;
  }
  void set(std::size_t i, T v) {
    value_[i] = v;
    stamp_[i] = epoch_;  // marks the slot live in the current generation
  }
  /// Deallocate the backing storage (Workspace::release_memory); the
  /// array re-grows on the next ensure(), with all slots stale.
  void release() {
    std::vector<T>().swap(value_);
    std::vector<std::uint32_t>().swap(stamp_);
  }

 private:
  std::vector<T> value_;
  std::vector<std::uint32_t> stamp_;
  /// Starts at 1 so default-initialized stamps (0) are always stale.
  std::uint32_t epoch_ = 1;
};

/// Reusable buffers for one pigp::Session (or one SPMD rank).  Plain data
/// plus sizing helpers; each pipeline phase documents which members it
/// owns while it runs.  Default-constructed it holds nothing — every
/// buffer grows on first use and is then reused forever.
struct Workspace {
  // --- step 1: seeded assignment BFS (core/assign.cpp) ---
  EpochArray<std::int32_t> assign_distance;  ///< BFS level per vertex
  EpochArray<graph::PartId> assign_label;    ///< nearest-old-vertex label
  std::vector<graph::VertexId> assign_frontier;
  std::vector<graph::VertexId> assign_next;

  // --- steps 2-3: balance driver (core/balance.cpp) ---
  std::vector<double> balance_targets;  ///< per-part weight targets
  std::vector<double> balance_excess;   ///< W(q) - target_q
  /// Persistent boundary-seeded layering: label/layer arrays survive
  /// across repartitions (reseed() undoes the previous stage in
  /// O(labeled)); bind() refreshes the graph/partitioning pointers and
  /// performs a full reset only after invalidate_vertex_ids() or a size
  /// change.
  BoundaryLayering layering;
  /// Balance-transfer selection buffers (core/transfer.cpp); both SPMD
  /// engines select from their rank workspace's.
  TransferScratch transfer;

  // --- steps 3-4: quotient-flow solves (core/balance.cpp) ---
  /// Stage and refinement flows, staged requirements, the network
  /// solver's arrays, the flow result and the stage decision.
  FlowWorkspace flow;

  // --- step 4: refinement (core/refine.cpp) ---
  /// Boundary in ascending id order (PartitionState::boundary_ascending).
  std::vector<graph::VertexId> refine_boundary;
  // Each boundary vertex's best move lives in the PartitionState's
  // vertex-analysis cache, beside its seed label, and survives across
  // rebalances: the state's mutators invalidate what they change.
  /// Sparse out(v, j) tally of the vertex being analysed.
  PartTally refine_tally;
  pigp::DenseMatrix<std::vector<GainCandidate>> refine_candidates;
  /// apply_gain_transfers' per-pair best-first selection.
  std::vector<GainCandidate> refine_selection;
  // Undo buffers live in the PartitionState, not here: a refine round, an
  // SPMD retry, a Session backend run and an AsyncSession tick all undo
  // through PartitionState::RollbackWindow (its journal and its pooled
  // per-depth aggregate snapshots).

  // --- SPMD driver gather/pack staging (core/spmd_igp.cpp) ---
  std::vector<graph::PartId> spmd_owned;         ///< this rank's partitions
  std::vector<std::int64_t> spmd_eps_rows;       ///< owned eps rows, packed
  std::vector<std::int64_t> spmd_gathered_rows;  ///< one rank's, on rank 0
  pigp::DenseMatrix<std::int64_t> spmd_eps;      ///< assembled eps, on rank 0
  std::vector<std::int64_t> spmd_moves_flat;     ///< broadcast move matrix
  std::vector<graph::VertexId> spmd_movers;      ///< one gathered selection

  /// Bumped by invalidate_vertex_ids(); secondary workspace owners (the
  /// SPMD backend's per-rank set) compare it against their own record to
  /// learn that a remap happened since their last run.
  std::uint64_t remap_generation = 0;

  /// A delta with removals compacted the vertex-id space: every
  /// id-addressed persistent buffer is now stale.  Epoch arrays handle
  /// this for free (they are cleared before every use); the layering
  /// schedules a full reset on its next bind().  The PartitionState's
  /// vertex analyses are remapped by the state itself.
  void invalidate_vertex_ids();

  /// Give every pooled buffer back to the allocator (deallocating, not
  /// just clearing).  An escape hatch for long-lived sessions after a
  /// burst much larger than their steady state — the next repartition
  /// simply re-warms the pools.
  void release_memory();
};

}  // namespace pigp::core
