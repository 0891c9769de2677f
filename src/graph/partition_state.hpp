#pragma once

/// \file partition_state.hpp
/// Incrementally maintained partition quality state — the O(Δ) companion
/// to compute_metrics().
///
/// The paper's premise is that absorbing an incremental modification must
/// cost proportional to the *change*, not the graph.  PartitionState makes
/// the quality metrics follow the same rule: it owns the per-partition
/// weights W(q) (eq. 1), the per-partition boundary costs C(q) (eq. 2) and
/// the total weighted cut, and keeps them exact under O(deg(v)) updates
/// instead of the O(V+E) rescan compute_metrics() performs.  snapshot()
/// then assembles a full PartitionMetrics in O(P).
///
/// compute_metrics() itself is implemented as rebuild() + snapshot(), so
/// there is exactly one definition of every metric — the incremental and
/// batch paths cannot disagree silently.  Edge-case contract (shared by
/// both paths):
///   * zero total weight => avg_weight == 0 and imbalance falls back to
///     1.0 ("perfectly balanced nothing");
///   * self-loops contribute nothing to any metric.  Graph forbids them
///     structurally (validate() rejects them), and every update method
///     additionally skips u == v so even a hand-built malformed adjacency
///     cannot make the two paths drift apart;
///   * vertices assigned kUnassigned contribute nothing at all (no weight,
///     no edges).  This is how a partitioning mid-update — new vertices not
///     yet placed, removed vertices retired — is represented.
///
/// All bookkeeping is plain addition/subtraction, so with integer-valued
/// weights (the paper's unit-weight default) the state stays bit-identical
/// to a fresh compute_metrics() forever; with arbitrary floating-point
/// weights it is exact up to summation-order rounding.
///
/// The Partitioning remains the source of truth for assignments: mutating
/// methods take it by reference and update it in lock-step with the
/// aggregates, so state and assignment can never be out of sync.
///
/// Besides the aggregates, the state maintains a per-partition *boundary
/// vertex index*: for every assigned vertex an external-edge count (number
/// of distinct edges to assigned neighbors in other partitions), one bit
/// per vertex id marking the vertices with a positive count, and per
/// partition the number of marked vertices.  This is what makes the
/// repartition pipeline boundary-local — layering seeds and refinement
/// candidates come from one ascending walk of the bits
/// (boundary_ascending()) instead of a full vertex scan.  Invariants: bit v
/// is set iff external_degree(v) > 0 iff v is assigned and has an assigned
/// neighbor in a different partition; boundary_vertices(q).size() is the
/// number of set bits whose vertex is assigned to q.  Because the index
/// counts edges (integers), it is exact for any edge weights; the
/// structural add_edge/remove_edge vs weight-only adjust_edge_weight split
/// below exists so weight merges cannot double-count an edge.
///
/// The state also caches one analysis per vertex (core::analyze_vertex:
/// the §2.2 seed label and the §2.4 best move).  A valid slot is exact:
/// every mutator invalidates the slots whose tally it can change —
/// move_vertex the mover and its neighbours, the edge methods both
/// endpoints, rebuild/grow_vertices the ids they (re)create — and
/// remap_vertices carries every boundary slot: an analysis reads no id
/// (the seed tie-break hashes Graph::vertex_key, which a compaction
/// keeps), so a renumbered vertex's analysis is still exact, and a
/// rebalance re-analyses only what changed since the last one.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "graph/partition.hpp"

namespace pigp::graph {

class PartitionState {
 public:
  /// Empty state; rebuild() before use.
  PartitionState() = default;

  /// Equivalent to rebuild(g, p).
  PartitionState(const Graph& g, const Partitioning& p);

  /// Recompute everything from scratch in O(V+E).  kUnassigned entries
  /// (retired or not-yet-placed ids) are tolerated and contribute nothing;
  /// every other entry must be in [0, num_parts).  Callers that require
  /// every live vertex to be assigned validate the Partitioning
  /// separately.  This is the one full-rescan entry point; the methods
  /// below are the O(Δ) ones.
  void rebuild(const Graph& g, const Partitioning& p);

  /// Reassign \p v to \p to (which may be kUnassigned to retire the
  /// vertex; v may currently be kUnassigned to place it).  Updates
  /// p.part[v] and all aggregates in O(deg(v)).  Neighbors assigned
  /// kUnassigned are invisible: their edges start counting when they are
  /// placed, so placing a set of vertices one at a time counts every edge
  /// exactly once.
  void move_vertex(const Graph& g, Partitioning& p, VertexId v, PartId to);

  /// Account for a *new* undirected edge {u, v} of weight \p weight — one
  /// that did not exist before (the boundary index counts it).  For a
  /// duplicate add that merges into an existing edge use
  /// adjust_edge_weight.  No-op contribution-wise unless both endpoints
  /// are assigned to different partitions.  O(1).
  void add_edge(const Partitioning& p, VertexId u, VertexId v, double weight);

  /// Inverse of add_edge: the edge disappears entirely and \p weight is
  /// its full weight. O(1).
  void remove_edge(const Partitioning& p, VertexId u, VertexId v,
                   double weight);

  /// The weight of an *existing* edge {u, v} changed by \p delta_weight
  /// (GraphBuilder / apply_delta duplicate-merge semantics).  Updates the
  /// costs only — the edge count, and therefore the boundary index, is
  /// unchanged.  O(1).
  void adjust_edge_weight(const Partitioning& p, VertexId u, VertexId v,
                          double delta_weight);

  /// Grow the per-vertex arrays to cover \p n vertices (the appended ids
  /// start unassigned with no boundary presence) without touching any
  /// aggregate.  The in-place assignment path resizes once and then
  /// places each appended vertex through move_vertex — the same protocol
  /// extend() follows internally.
  void grow_vertices(VertexId n);

  /// Fold the placements of the appended vertices [first_new,
  /// g.num_vertices()) into the state: \p p currently covers only
  /// [0, first_new) (the state's view), \p placed covers every vertex with
  /// old assignments unchanged.  Grows p to match placed and applies one
  /// move_vertex per new vertex — O(Σ deg(new)).
  void extend(const Graph& g, Partitioning& p, VertexId first_new,
              const Partitioning& placed);

  /// Bring the state from \p p to \p target by moving exactly the vertices
  /// whose assignment differs: O(V) id compares + O(deg) per changed
  /// vertex — far below a rebuild when a repartition only moved a few
  /// boundary layers.  \p p may be shorter than target (missing tail =
  /// kUnassigned, i.e. freshly appended vertices) and becomes equal to
  /// target.
  void transition(const Graph& g, Partitioning& p, const Partitioning& target);

  /// Reconcile an apply_extended()-style graph swap where edges *between
  /// old vertices* may also have changed (mesh retriangulation destroys
  /// and creates old-old edges): one merge-walk over the old-vertex
  /// adjacencies applies the exact edge diff, including weight changes.
  /// Appended vertices stay invisible until extend()/move_vertex() places
  /// them.  Returns the number of distinct edges *between old vertices*
  /// {added, removed}; edges attached to the appended vertices are NOT in
  /// `added` — callers accounting totals must derive those from the edge
  /// counts (as Session::apply_extended does).
  struct EdgeDiff {
    std::int64_t added = 0;
    std::int64_t removed = 0;
  };
  EdgeDiff reconcile_extension(const Graph& g_old, const Graph& g_new,
                               const Partitioning& p, VertexId n_old);

  /// Rewrite every per-vertex entry of the boundary index and the
  /// boundary vertices' analyses through the order-preserving id
  /// compaction of a delta with removals (Graph::compact, apply_delta):
  /// surviving old vertex v becomes old_to_new[v] <= v (kInvalidVertex
  /// entries must already be retired via move_vertex(…, kUnassigned)).
  /// \p new_num_vertices is the vertex count of the new graph; appended
  /// vertices start unassigned.  The aggregates are id-free and
  /// unaffected.  O(V + boundary).
  void remap_vertices(const std::vector<VertexId>& old_to_new,
                      VertexId new_num_vertices);

  /// Full PartitionMetrics in O(P): summary() plus copies of W and C.
  [[nodiscard]] PartitionMetrics snapshot() const;

  /// The scalar fields of snapshot() without the per-partition vector
  /// copies — O(P) arithmetic, zero allocations.  This is what every
  /// SessionReport carries.
  [[nodiscard]] PartitionSummary summary() const;

  // --- boundary index ---

  /// The size of one partition's boundary.  Iterate the boundary itself
  /// through boundary_ascending() or for_each_boundary().
  class BoundarySize {
   public:
    explicit BoundarySize(std::int64_t n) noexcept : n_(n) {}
    [[nodiscard]] std::size_t size() const noexcept {
      return static_cast<std::size_t>(n_);
    }

   private:
    std::int64_t n_;
  };
  /// How many vertices of partition \p q have at least one external edge.
  /// O(1).
  [[nodiscard]] BoundarySize boundary_vertices(PartId q) const noexcept {
    return BoundarySize(boundary_count_[static_cast<std::size_t>(q)]);
  }
  /// Number of distinct edges from \p v to assigned neighbors in other
  /// partitions (0 for unassigned vertices).  O(1).
  [[nodiscard]] std::int32_t external_degree(VertexId v) const {
    return ext_degree_[static_cast<std::size_t>(v)];
  }
  [[nodiscard]] bool is_boundary(VertexId v) const {
    return external_degree(v) > 0;
  }
  /// Call \p visit(v) for every boundary vertex of every partition, in
  /// ascending id order.  One pass over the membership bitset:
  /// O(V/64 + |boundary|), no sort, no allocation.
  template <class Visit>
  void for_each_boundary(Visit&& visit) const {
    for (std::size_t w = 0; w < boundary_bits_.size(); ++w) {
      for (std::uint64_t bits = boundary_bits_[w]; bits != 0;
           bits &= bits - 1) {
        visit(static_cast<VertexId>(
            w * 64 + static_cast<std::size_t>(std::countr_zero(bits))));
      }
    }
  }
  /// for_each_boundary() into \p out (cleared; capacity reused, so a warm
  /// call allocates nothing).
  void boundary_ascending(std::vector<VertexId>& out) const;

  // --- vertex analysis cache ---

  /// What one O(deg) pass over a boundary vertex's neighbourhood decides.
  struct VertexAnalysis {
    PartId seed = -1;   ///< layer-0 label (-1: all external weight is 0)
    PartId best = -1;   ///< refinement destination (-1: none)
    double gain = 0.0;  ///< out(v, best) - in(v)
  };
  /// v's cached analysis, or nullopt when a mutator invalidated it since
  /// it was stored (or it never was).  O(1).
  [[nodiscard]] std::optional<VertexAnalysis> analysis(VertexId v) const {
    const AnalysisSlot& s = analysis_[static_cast<std::size_t>(v)];
    if (s.valid == 0) return std::nullopt;
    return VertexAnalysis{s.seed, s.best, s.gain};
  }
  /// Cache \p a, which must be v's exact analysis for the current graph
  /// and partitioning.  The cache is logically const, so this is a const
  /// member; calls for different vertices may run concurrently (each slot
  /// holds its own validity), calls for one vertex may not.  O(1).
  void store_analysis(VertexId v, const VertexAnalysis& a) const {
    analysis_[static_cast<std::size_t>(v)] = {a.gain, a.best, a.seed, 1};
  }

  // --- O(Δ) undo journal ---
  //
  // The one undo mechanism for speculative moves (a refine round, an SPMD
  // attempt, a Session backend run, an AsyncSession tick).  While any
  // RollbackWindow is open, every assignment change that flows through
  // move_vertex is recorded as {vertex, previous part}.  Opening a window
  // also saves the O(P) aggregates into a per-depth snapshot pool the
  // state owns; undo() replays the window's journal tail LIFO through
  // move_vertex itself — restoring the Partitioning and the (integer)
  // boundary index exactly — and then restores that snapshot, erasing
  // the floating-point drift of the replay.  Windows nest (Session →
  // SpmdBackend → refine round) and close in their destructors without
  // undoing, so an inner window's kept moves stay in its parent's tail
  // and every exception path leaves the windows balanced.  Closing the
  // outermost window clears the journal; with no window open, moves are
  // not recorded.

  /// One recorded assignment change: v moved away from `from`.
  struct JournalEntry {
    VertexId v;
    PartId from;
  };

  /// RAII rollback window over a PartitionState (see above).  Not
  /// copyable; windows must close in LIFO order, which scoping gives.
  class RollbackWindow {
   public:
    /// Open: record the journal mark and save the aggregates.  O(P), and
    /// allocation-free once this nesting depth's snapshot is warm.
    explicit RollbackWindow(PartitionState& state);
    /// Close without undoing.  O(1).
    ~RollbackWindow();
    RollbackWindow(const RollbackWindow&) = delete;
    RollbackWindow& operator=(const RollbackWindow&) = delete;

    /// Undo every move recorded since the window opened (LIFO), then
    /// restore the aggregates saved at open.  O(Σ deg(moved) + P).  The
    /// window stays open, so it can be reused and undone again.  Throws
    /// pigp::CheckError if rebuild() or remap_vertices() ran inside the
    /// window: the recorded ids no longer match the state.
    void undo(const Graph& g, Partitioning& p);

    /// undo(), then re-validate the analyses the replay invalidated:
    /// those of the boundary vertices among the undone movers and their
    /// neighbours.  Sound only when every boundary vertex's analysis was
    /// valid when the window opened and none was stored inside it (a
    /// refinement round): the undo restores the partitioning and the
    /// boundary exactly, and invalidation keeps a slot's value.
    void undo_keeping_analysis(const Graph& g, Partitioning& p);

    /// The moves recorded since the window opened and not undone, oldest
    /// first (a closed inner window's kept moves included).
    [[nodiscard]] std::span<const JournalEntry> moves() const noexcept {
      return {state_.journal_.data() + mark_, state_.journal_.size() - mark_};
    }

   private:
    void undo(const Graph& g, Partitioning& p, bool keep_analysis);

    PartitionState& state_;
    std::size_t mark_;
    std::size_t depth_;
  };

  /// Recorded (not yet undone) moves across all open windows.
  [[nodiscard]] std::size_t journal_size() const noexcept {
    return journal_.size();
  }

  [[nodiscard]] double cut_total() const noexcept { return cut_total_; }
  [[nodiscard]] PartId num_parts() const noexcept { return num_parts_; }
  [[nodiscard]] const std::vector<double>& weights() const noexcept {
    return weight_;
  }
  [[nodiscard]] const std::vector<double>& boundary_costs() const noexcept {
    return boundary_cost_;
  }
  /// max W(q) / avg W, 1.0 when the total weight is zero — the *single*
  /// definition of imbalance (Session batch triggers and reports both read
  /// it from here).  O(P).
  [[nodiscard]] double imbalance() const noexcept;

 private:
  /// Set (\p member) or clear v's boundary bit, counting the change against
  /// partition \p q — the one place a bit and its partition's count change
  /// together.  (remap_vertices rewrites the bits but moves no vertex
  /// between partitions, so it keeps the counts.)
  void set_boundary(PartId q, VertexId v, bool member);

  void invalidate_analysis(VertexId v) {
    analysis_[static_cast<std::size_t>(v)].valid = 0;
  }

  std::vector<double> weight_;         ///< W(q)
  std::vector<double> boundary_cost_;  ///< C(q)
  double cut_total_ = 0.0;
  PartId num_parts_ = 0;

  /// Distinct external edges per vertex (0 when unassigned).
  std::vector<std::int32_t> ext_degree_;
  /// Bit v set iff ext_degree_[v] > 0 — the boundary, in id order.
  std::vector<std::uint64_t> boundary_bits_;
  /// Set bits per partition (boundary_vertices(q).size()).
  std::vector<std::int64_t> boundary_count_;

  /// One VertexAnalysis per vertex id in 16 bytes, its validity in the
  /// slot itself (never in a word shared with other vertices), so
  /// in-process SPMD ranks may fill different slots at once.  Invalidation
  /// clears only `valid` and keeps the value, which undo_keeping_analysis
  /// relies on.
  struct AnalysisSlot {
    double gain = 0.0;
    PartId best = -1;
    PartId seed : 31 = -1;
    std::uint32_t valid : 1 = 0;
  };
  static_assert(sizeof(AnalysisSlot) == 16);
  mutable std::vector<AnalysisSlot> analysis_;

  /// The O(P) undo unit a window saves at open: the aggregates only.
  struct AggregateSnapshot {
    std::vector<double> weight;
    std::vector<double> boundary_cost;
    double cut_total = 0.0;
  };
  std::vector<JournalEntry> journal_;
  /// Snapshot of the window open at each nesting depth, pooled.
  std::vector<AggregateSnapshot> window_aggregates_;
  std::int32_t journal_windows_ = 0;  ///< open rollback windows
  bool journal_replaying_ = false;    ///< suppress recording during undo
  bool journal_rebased_ = false;      ///< rebuild/remap inside a window
};

}  // namespace pigp::graph
