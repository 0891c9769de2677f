#pragma once

/// \file session.hpp
/// pigp::Session — the stateful entry point of the library.
///
/// A Session owns the current graph and its partitioning and absorbs a
/// stream of incremental changes: apply() takes a graph::GraphDelta
/// (insertions and deletions), apply_extended() takes a pre-extended graph
/// whose first n_old vertices are the current graph's, and repartition()
/// forces a rebalance immediately.  Every call returns a uniform
/// SessionReport with the partition metrics, per-step timings, LP telemetry
/// and cumulative stream counters.
///
/// The repartitioning driver is a pluggable Backend selected by name in the
/// SessionConfig ("igp", "igpr", "multilevel", "spmd", "scratch"), and the
/// batch policy decides whether each absorbed delta triggers a rebalance
/// immediately (the paper's protocol) or whether several small deltas are
/// batched until an imbalance or vertex-count threshold trips.  Between
/// repartitions the session stays queryable: when a delta is batched
/// rather than rebalanced, its new vertices are attached to their nearest
/// partition (step 1 of the pipeline) immediately; when the backend runs,
/// it performs step 1 itself so the assignment BFS is never paid twice.
///
/// Quality metrics are maintained incrementally: the session owns a
/// graph::PartitionState that absorbs every change in O(Δ), so the metrics
/// in each SessionReport, the metrics() accessor and the imbalance batch
/// trigger all cost O(num_parts) instead of an O(V+E) rescan.  The same
/// state carries the maintained boundary-vertex index, and the session
/// threads it into every backend run: the igp/igpr/spmd pipelines seed
/// their layering, balance weights and refinement candidates from it, so
/// a repartition after a localized delta costs O(boundary + Δ) in its
/// layering/candidate phases rather than O(V + E) (see "The
/// boundary-local pipeline" in docs/ARCHITECTURE.md).

#include <cstdint>
#include <exception>
#include <memory>
#include <string_view>
#include <vector>

#include "api/backend.hpp"
#include "api/config.hpp"
#include "core/workspace.hpp"
#include "graph/delta.hpp"
#include "graph/graph.hpp"
#include "graph/partition.hpp"
#include "graph/partition_state.hpp"
#include "runtime/timer.hpp"

namespace pigp {

/// Cumulative statistics across the whole delta stream.
struct SessionCounters {
  std::int64_t deltas_applied = 0;      ///< apply() calls
  std::int64_t extensions_applied = 0;  ///< apply_extended() calls
  std::int64_t vertices_added = 0;
  /// Vertices actually deleted (duplicate V2 entries collapse).
  std::int64_t vertices_removed = 0;
  /// Every edge the stream added to the graph: explicit E1 edges, edges
  /// attached to added vertices, and edges introduced by extensions.
  /// Duplicates that merge into an existing edge count zero, exactly like
  /// the graph's own edge count.
  std::int64_t edges_added = 0;
  /// Every edge the stream removed: explicit E2 edges plus edges
  /// implicitly dropped with removed vertices (each distinct edge once)
  /// and old-old edges destroyed by extensions.
  std::int64_t edges_removed = 0;
  std::int64_t repartitions = 0;
  std::int64_t balance_stages = 0;
  std::int64_t lp_iterations = 0;     ///< balance + refinement pivots
  double update_seconds = 0.0;        ///< delta application + assignment
  double repartition_seconds = 0.0;   ///< backend time
};

/// Uniform result of every Session mutation.
struct SessionReport {
  /// True when the backend ran (false when the batch policy deferred).
  bool repartitioned = false;
  /// True when this call compacted the vertex-id space (dropped dead ids
  /// and renumbered the survivors) — consult Session::last_compaction()
  /// for the mapping.  Always true for a delta with removals under
  /// GraphCompaction::eager; under deferred only when the slack threshold
  /// tripped.
  bool compacted = false;
  /// Updates absorbed but not yet rebalanced after this call.
  int pending_updates = 0;
  /// Wall time of this call (application + assignment + backend).
  double seconds = 0.0;

  // --- backend telemetry, populated when repartitioned ---
  /// balance.balanced says whether the backend balanced the load;
  /// balance.stages.size() is the paper's IGP(k) stage count.
  core::BalanceResult balance;
  core::RefineStats refine;
  core::IgpTimings timings;

  /// Quality of the current partitioning after this call — the scalar
  /// summary (cut total/max/min, weight max/min/avg, imbalance), produced
  /// in O(P) with zero allocations.  The per-partition breakdown is
  /// available on demand through Session::metrics().
  graph::PartitionSummary metrics;
  /// Snapshot of the cumulative stream counters.
  SessionCounters counters;
};

/// Stateful incremental-repartitioning session over a pluggable backend.
class Session {
 public:
  /// Adopt \p g with an existing partitioning (p.num_parts must equal
  /// config.num_parts).
  Session(SessionConfig config, graph::Graph g, graph::Partitioning p);

  /// Partition \p g from scratch with config.scratch_method.
  Session(SessionConfig config, graph::Graph g);

  // A Session is address-stable: the warm workspace's persistent boundary
  // layering holds pointers into the session's graph and partitioning
  // (core::BoundaryLayering::bind), so a moved-from/moved-to pair would
  // leave the layering bound to buffers the move relocated.  bind() is
  // re-run before every use today, but that is an internal detail of the
  // igp pipeline, not a contract — rather than pin a fragile invariant,
  // moving is deleted.  Construct in place (std::optional<Session>::emplace,
  // containers of unique_ptr) where relocation is needed; factory returns
  // still work via guaranteed copy elision.
  Session(Session&&) = delete;
  Session& operator=(Session&&) = delete;

  /// Absorb one incremental modification (insertions and/or deletions) in
  /// O(Δ · deg): the slotted graph is mutated in place and the maintained
  /// PartitionState absorbs every change — no rebuild, no copy of the old
  /// graph.  The delta is validated up front (strong guarantee: a rejected
  /// delta leaves the session untouched) against the same rules as
  /// graph::validate_delta.  Removed vertices become dead ids; whether the
  /// id space is compacted immediately or deferred is governed by
  /// config.graph_compaction (see GraphCompaction).  Repartitions now or
  /// defers per config.batch_policy.  Not thread-safe — external
  /// synchronization (or AsyncSession) required for concurrent use.
  SessionReport apply(const graph::GraphDelta& delta);

  /// Absorb a pre-extended graph: \p g_new's first \p n_old vertices are
  /// the current graph's (n_old must equal graph().num_vertices()).
  /// Requires a compacted id space (no dead vertices) — under deferred
  /// compaction call compact() first; throws DeltaError otherwise.
  SessionReport apply_extended(graph::Graph g_new, graph::VertexId n_old);

  /// Run the backend now regardless of the batch policy.
  SessionReport repartition();

  /// Compact the vertex-id space now, regardless of the configured
  /// trigger: dead ids are dropped, the survivors are renumbered
  /// order-preservingly, and the graph's adjacency storage becomes tight.
  /// O(V + E).  Returns the old→new id mapping (removed ids map to
  /// graph::kInvalidVertex), also available as last_compaction().  A no-op
  /// renumbering (identity mapping) when nothing is dead.
  const std::vector<graph::VertexId>& compact();

  /// The old→new id mapping of the most recent compaction (empty if none
  /// has happened yet).  Valid until the next compaction.
  [[nodiscard]] const std::vector<graph::VertexId>& last_compaction()
      const noexcept {
    return last_compaction_;
  }

  /// Monotone counter bumped every time the vertex-id space is remapped
  /// (a compaction).  Snapshot-based consumers (AsyncSession's background
  /// rebalancer) compare epochs to detect that ids from an older snapshot
  /// no longer align with the session's.
  [[nodiscard]] std::uint64_t remap_epoch() const noexcept {
    return workspace_.remap_generation;
  }

  [[nodiscard]] const graph::Graph& graph() const noexcept { return graph_; }
  [[nodiscard]] const graph::Partitioning& partitioning() const noexcept {
    return partitioning_;
  }
  [[nodiscard]] const SessionConfig& config() const noexcept {
    return resolved_.session;
  }
  [[nodiscard]] const SessionCounters& counters() const noexcept {
    return counters_;
  }
  [[nodiscard]] std::string_view backend_name() const noexcept {
    return backend_->name();
  }
  /// Updates absorbed since the last repartition.
  [[nodiscard]] int pending_updates() const noexcept {
    return pending_updates_;
  }
  /// Quality metrics of the current partitioning — an O(num_parts)
  /// snapshot of the incrementally maintained graph::PartitionState, not a
  /// graph rescan.
  [[nodiscard]] graph::PartitionMetrics metrics() const;
  /// Scalar quality summary (cut total/max/min, weight max/min/avg,
  /// imbalance) in O(num_parts) with zero allocations — the cheap
  /// counterpart of metrics() for reports and periodic monitoring.
  [[nodiscard]] graph::PartitionSummary summary() const {
    return state_.summary();
  }
  /// The incrementally maintained metrics/boundary state — read-only, for
  /// callers that snapshot the session (the async layer hands copies of it
  /// to its background rebalancer so the backend can seed boundary-local
  /// work without a rescan).
  [[nodiscard]] const graph::PartitionState& partition_state()
      const noexcept {
    return state_;
  }

  /// True once a backend run died on the SPMD wire (pigp::TransportError):
  /// peer ranks may be gone, so the distributed group cannot be assumed
  /// functional and every further mutating call rethrows the original
  /// error.  The session's own graph/partitioning/state stay consistent
  /// (the failed run was rolled back) — read accessors keep working.
  [[nodiscard]] bool transport_failed() const noexcept {
    return transport_failure_ != nullptr;
  }

  /// Explicit recovery from transport_failed(): drop the latched error so
  /// mutating calls work again.  Safe because the failed run was rolled
  /// back — graph/partitioning/state are consistent — but the *caller*
  /// asserts the transport is worth trusting again (peers restarted,
  /// network healed); the session cannot know that.  The failed run
  /// discarded the spmd backend's rank group, so the next repartition
  /// builds fresh threads and connections and nothing else needs
  /// resetting.  A no-op when no error is latched.
  void clear_error() noexcept { transport_failure_ = nullptr; }

  /// Adopt the result of an out-of-session rebalance computed on a
  /// snapshot of this session's current graph: every live vertex below
  /// \p rebalanced.num_vertices() whose assignment differs is moved (O(Δ)
  /// through the maintained state), the batch counters reset, and one
  /// repartition is counted.  \p rebalanced must have the session's part
  /// count and must not cover more vertices than the current graph —
  /// vertices the session gained after the snapshot keep their step-1
  /// placement, and ids it removed after the snapshot stay retired.  This
  /// is the AsyncSession commit for a snapshot the session has moved past.
  void adopt_rebalance(const graph::Partitioning& rebalanced);

  /// Take a rebalance computed out of session on an exact copy of this
  /// session's current graph: the session swaps its graph, partitioning
  /// and state with \p g, \p p and \p state in O(1) — keeping every vertex
  /// analysis the rebalance cached — and the arguments receive the
  /// session's previous buffers.  The batch counters reset and one
  /// repartition is counted, as in adopt_rebalance.  \p remap_tag is the
  /// remap_epoch() the copy was taken at.  Throws DeltaError, leaving the
  /// session and the arguments untouched, when the copy does not match:
  /// every build compares the vertex, edge and part counts and the remap
  /// epoch, and Debug and PIGP_VALIDATE builds also compare the graphs.
  /// This is the AsyncSession commit when nothing was absorbed since the
  /// snapshot.
  void swap_in_rebalance(graph::Graph& g, graph::Partitioning& p,
                         graph::PartitionState& state,
                         std::uint64_t remap_tag);

  /// Return every pooled buffer to the allocator — the session workspace
  /// and anything the backend owns (the SPMD backend's per-rank
  /// workspaces).  Useful for a long-lived session after a burst much
  /// larger than its steady state; the next repartition transparently
  /// re-warms the pools (and is allocation-free again from then on).
  void trim_memory() {
    workspace_.release_memory();
    backend_->trim_memory();
  }

 private:
  /// Decide per batch policy, run the backend if due (handing it \p old
  /// over [0, n_old) so step 1 runs exactly once), and assemble the
  /// uniform report.  \p started times the whole public call.
  SessionReport finish_update(const runtime::WallTimer& started,
                              graph::Partitioning old,
                              graph::VertexId n_old);
  /// Run the backend in place: \p old (covering [0, n_old)) becomes the
  /// session partitioning and the backend's in-place overload extends/
  /// rebalances it against graph_/state_ without any O(V) allocation.
  /// Exception rollback is O(Δ): the whole run executes inside a
  /// PartitionState::RollbackWindow, so on backend exceptions the window
  /// undoes the run's moves and restores the entry aggregates, and step 1
  /// re-places the appended vertices — the graph/partitioning/state
  /// invariant holds for the caller either way.
  void run_backend(SessionReport& report, graph::Partitioning old,
                   graph::VertexId n_old);
  /// Compact the graph and remap partitioning/state/workspace in lock-step
  /// (the implementation behind compact() and the automatic triggers).
  void compact_now();
  /// Post-backend sanity: a full Partitioning::validate in Debug and
  /// PIGP_VALIDATE builds; in Release an O(Δ + boundary + P) incremental
  /// invariant check — appended assignments in range, maintained weights
  /// summing to the graph total, the boundary index consistent with the
  /// assignment.
  void check_backend_invariants(graph::VertexId n_old);
  /// Rethrow the sticky wire failure, if any (top of every mutating call).
  void throw_if_failed() const;

  ResolvedConfig resolved_;
  std::unique_ptr<Backend> backend_;
  graph::Graph graph_;
  graph::Partitioning partitioning_;
  /// O(Δ)-maintained metrics over (graph_, partitioning_): per-part
  /// weights, boundary costs and the cut, kept exact through every apply/
  /// extend/repartition so metrics() and the batch-policy imbalance
  /// trigger never rescan the graph.  The single source of truth for
  /// imbalance (PartitionState::imbalance).  Also carries the boundary-
  /// vertex index the state-threaded backends repartition from.
  graph::PartitionState state_;
  /// Session-lifetime reusable buffers for every pipeline phase (assignment
  /// BFS epoch arrays, the persistent boundary layering, refine scratch,
  /// the rollback snapshot): steady-state repartitions allocate nothing.
  /// See "Workspace & steady-state memory discipline" in ARCHITECTURE.md.
  core::Workspace workspace_;
  SessionCounters counters_;
  /// Set when a backend run threw pigp::TransportError; see
  /// transport_failed().
  std::exception_ptr transport_failure_;
  int pending_updates_ = 0;
  /// Vertices added + removed since the last repartition (vertex_count
  /// batch policy).
  std::int64_t pending_vertex_changes_ = 0;
  /// Old→new id mapping of the most recent compaction (see
  /// last_compaction()).
  std::vector<graph::VertexId> last_compaction_;
  /// Per-partition boundary tallies of the Release invariant check, pooled
  /// so the check allocates nothing once warm.
  std::vector<std::int64_t> boundary_tally_;
};

}  // namespace pigp
