#include "api/session.hpp"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "api/errors.hpp"
#include "core/assign.hpp"
#include "support/check.hpp"

namespace pigp {

Session::Session(SessionConfig config, graph::Graph g, graph::Partitioning p)
    : resolved_(config.resolve()),
      backend_(BackendRegistry::global().create(config.backend, resolved_)),
      graph_(std::move(g)),
      partitioning_(std::move(p)) {
  if (partitioning_.num_parts != resolved_.session.num_parts) {
    throw ConfigError("adopted partitioning has " +
                      std::to_string(partitioning_.num_parts) +
                      " parts but SessionConfig.num_parts is " +
                      std::to_string(resolved_.session.num_parts));
  }
  partitioning_.validate(graph_);  // every live vertex assigned, in range
  state_.rebuild(graph_, partitioning_);  // seeds the O(Δ) path
}

Session::Session(SessionConfig config, graph::Graph g)
    : resolved_(config.resolve()),
      backend_(BackendRegistry::global().create(config.backend, resolved_)) {
  if (g.num_vertices() <= 0) {
    throw ConfigError("cannot start a session on an empty graph");
  }
  graph_ = std::move(g);
  partitioning_ = partition_from_scratch(graph_, resolved_);
  state_.rebuild(graph_, partitioning_);
}

SessionReport Session::apply(const graph::GraphDelta& delta) {
  throw_if_failed();
  const runtime::WallTimer call_timer;
  runtime::WallTimer update_timer;

  // A delta that changes nothing (no additions, no removals) is a pure
  // repartition tick: skip the graph rebuild entirely, so at steady state
  // the whole call runs off the warm workspace without touching the heap.
  if (delta.added_vertices.empty() && delta.added_edges.empty() &&
      !delta.has_removals()) {
    counters_.deltas_applied += 1;
    counters_.update_seconds += update_timer.seconds();
    pending_updates_ += 1;
    return finish_update(call_timer, std::move(partitioning_),
                         graph_.num_vertices());
  }

  // Validate the whole delta up front (same rules as apply_delta), so
  // every mutation below is known good and cannot half-apply: a rejected
  // delta leaves graph/partitioning/state untouched (strong guarantee).
  graph::validate_delta(graph_, delta);

  const std::int64_t old_edges = graph_.num_edges();
  const auto added =
      static_cast<graph::VertexId>(delta.added_vertices.size());

  // Removed vertices: retire the assignment first (move_vertex pulls the
  // weight and the edges to still-present neighbors out of the state, so
  // an edge between two removed vertices leaves exactly once), then drop
  // the vertex from the graph — it becomes a dead id until compaction.
  std::int64_t removed_edge_count = 0;
  std::int64_t removed_vertex_count = 0;
  for (const graph::VertexId v : delta.removed_vertices) {
    if (!graph_.is_live(v)) continue;  // duplicate entry, already removed
    for (const graph::VertexId u : graph_.neighbors(v)) {
      if (partitioning_.part[static_cast<std::size_t>(u)] !=
          graph::kUnassigned) {
        ++removed_edge_count;
      }
    }
    state_.move_vertex(graph_, partitioning_, v, graph::kUnassigned);
    graph_.remove_vertex(v);
    ++removed_vertex_count;
  }
  // Removed edges (deduplicated; entries whose endpoint left with a
  // removed vertex are already gone).
  if (!delta.removed_edges.empty()) {
    std::vector<std::pair<graph::VertexId, graph::VertexId>> removed_old_edges;
    removed_old_edges.reserve(delta.removed_edges.size());
    for (const auto& [u, v] : delta.removed_edges) {
      removed_old_edges.push_back(graph::canonical_edge(u, v));
    }
    std::sort(removed_old_edges.begin(), removed_old_edges.end());
    removed_old_edges.erase(
        std::unique(removed_old_edges.begin(), removed_old_edges.end()),
        removed_old_edges.end());
    for (const auto& [u, v] : removed_old_edges) {
      if (partitioning_.part[static_cast<std::size_t>(u)] ==
              graph::kUnassigned ||
          partitioning_.part[static_cast<std::size_t>(v)] ==
              graph::kUnassigned) {
        continue;  // already gone with a removed endpoint
      }
      const double w = graph_.remove_edge(u, v);
      state_.remove_edge(partitioning_, u, v, w);
      ++removed_edge_count;
    }
  }

  // Added vertices: ids are appended to the current id space, so a
  // delta-space id (n_old + index) IS the graph id — no translation.  The
  // new vertices start unassigned; their edges become visible to the
  // state when step 1 places them (finish_update / the backend).
  for (const graph::VertexAddition& add : delta.added_vertices) {
    const graph::VertexId self = graph_.add_vertex(add.weight);
    partitioning_.part.push_back(graph::kUnassigned);
    for (const auto& [endpoint, weight] : add.edges) {
      graph_.insert_edge(self, endpoint, weight);
    }
  }
  state_.grow_vertices(graph_.num_vertices());

  // Added edges, in delta order (float cost accumulation stays
  // order-stable): the graph's own merge result decides structural-new
  // (boundary index counts it) vs duplicate (weights only).  An edge
  // removed above and re-added here was physically removed, so it counts
  // as structural again — the historical replace semantics.  Edges
  // touching a still-unassigned new vertex no-op through the state and
  // enter at placement time.
  for (std::size_t i = 0; i < delta.added_edges.size(); ++i) {
    const auto [u, v] = delta.added_edges[i];
    const double w =
        delta.added_edge_weights.empty() ? 1.0 : delta.added_edge_weights[i];
    const bool structural = graph_.insert_edge(u, v, w);
    if (structural) {
      state_.add_edge(partitioning_, u, v, w);
    } else {
      state_.adjust_edge_weight(partitioning_, u, v, w);
    }
  }

  counters_.deltas_applied += 1;
  counters_.vertices_added += static_cast<std::int64_t>(added);
  counters_.vertices_removed += removed_vertex_count;
  // Count what actually changed in the graph, not what the delta listed:
  // removals include the edges implicitly dropped with removed vertices,
  // additions include new-vertex attachment edges (merged duplicates count
  // once, exactly like the graph itself).
  counters_.edges_removed += removed_edge_count;
  counters_.edges_added +=
      graph_.num_edges() - (old_edges - removed_edge_count);

  // Compaction policy.  Eager reclaims dead ids at the end of every delta
  // that removed something — ids after apply() are exactly what the
  // historical rebuild path produced.  Deferred waits until dead ids or
  // adjacency slack exceed the configured fraction, keeping ids stable and
  // the per-delta cost at O(Δ).
  bool compacted = false;
  if (resolved_.session.graph_compaction == GraphCompaction::eager) {
    if (delta.has_removals()) {
      compact_now();
      compacted = true;
    }
  } else {
    const double slack = resolved_.session.compaction_slack;
    const auto n_ids = static_cast<double>(graph_.num_vertices());
    const auto cap = static_cast<double>(graph_.adjacency_capacity());
    if (static_cast<double>(graph_.num_dead_vertices()) > slack * n_ids ||
        (cap > 0.0 &&
         static_cast<double>(graph_.adjacency_slack()) > slack * cap)) {
      compact_now();
      compacted = true;
    }
  }
  // The appended (still unassigned) vertices are the id-space tail either
  // way; hand finish_update the assignment over everything before them.
  const graph::VertexId effective_first_new = graph_.num_vertices() - added;
  graph::Partitioning carried = std::move(partitioning_);
  carried.part.resize(static_cast<std::size_t>(effective_first_new));

  counters_.update_seconds += update_timer.seconds();
  pending_updates_ += 1;
  pending_vertex_changes_ +=
      static_cast<std::int64_t>(added) + removed_vertex_count;

  SessionReport report =
      finish_update(call_timer, std::move(carried), effective_first_new);
  report.compacted = compacted;
  return report;
}

const std::vector<graph::VertexId>& Session::compact() {
  throw_if_failed();
  compact_now();
  return last_compaction_;
}

void Session::compact_now() {
  const graph::VertexId n = graph_.num_vertices();
  const graph::VertexId new_n = graph_.compact(last_compaction_);
  // Forward rewrite is safe in place: the order-preserving mapping never
  // moves an assignment to a higher id.
  for (graph::VertexId v = 0; v < n; ++v) {
    const graph::VertexId nv = last_compaction_[static_cast<std::size_t>(v)];
    if (nv != graph::kInvalidVertex) {
      partitioning_.part[static_cast<std::size_t>(nv)] =
          partitioning_.part[static_cast<std::size_t>(v)];
    }
  }
  partitioning_.part.resize(static_cast<std::size_t>(new_n));
  // The retired ids already left the boundary index (they were moved to
  // kUnassigned when removed), so every surviving entry remaps cleanly;
  // id-addressed workspace buffers are now stale.
  state_.remap_vertices(last_compaction_, new_n);
  workspace_.invalidate_vertex_ids();
}

SessionReport Session::apply_extended(graph::Graph g_new,
                                      graph::VertexId n_old) {
  throw_if_failed();
  const runtime::WallTimer call_timer;
  runtime::WallTimer update_timer;

  if (n_old != graph_.num_vertices()) {
    throw DeltaError("apply_extended: n_old (" + std::to_string(n_old) +
                     ") must equal the session's current vertex count (" +
                     std::to_string(graph_.num_vertices()) + ")");
  }
  if (g_new.num_vertices() < n_old) {
    throw DeltaError(
        "apply_extended: the new graph must extend the current graph");
  }
  if (graph_.num_dead_vertices() > 0) {
    // An extension aligns ids positionally with the current graph; dead
    // ids would silently shift that alignment.
    throw DeltaError(
        "apply_extended: the session graph has uncompacted removed "
        "vertices — call compact() first");
  }

  const graph::VertexId added = g_new.num_vertices() - n_old;
  const std::int64_t old_edges = graph_.num_edges();
  // Extensions may also rewire edges *between* old vertices (mesh
  // retriangulation destroys and creates them); reconcile the exact diff
  // into the state and the counters.  The appended vertices stay invisible
  // until finish_update places them.
  const graph::PartitionState::EdgeDiff diff =
      state_.reconcile_extension(graph_, g_new, partitioning_, n_old);
  graph::Partitioning old = std::move(partitioning_);  // covers [0, n_old)
  // The old vertices keep their keys and the appended ones are numbered
  // from the session graph's counter, as add_vertex would number them, so
  // the analyses the state carries stay exact.
  std::vector<std::uint32_t> keys(graph_.vertex_keys());
  std::uint32_t next_key = graph_.next_vertex_key();
  for (graph::VertexId v = n_old; v < g_new.num_vertices(); ++v) {
    keys.push_back(next_key++);
  }
  g_new.set_vertex_keys(std::move(keys), next_key);
  graph_ = std::move(g_new);

  counters_.extensions_applied += 1;
  counters_.vertices_added += added;
  counters_.edges_removed += diff.removed;
  counters_.edges_added +=
      graph_.num_edges() - (old_edges - diff.removed);
  counters_.update_seconds += update_timer.seconds();
  pending_updates_ += 1;
  pending_vertex_changes_ += added;

  return finish_update(call_timer, std::move(old), n_old);
}

SessionReport Session::repartition() {
  throw_if_failed();
  const runtime::WallTimer call_timer;
  SessionReport report;
  run_backend(report, std::move(partitioning_), graph_.num_vertices());
  report.pending_updates = pending_updates_;
  report.seconds = call_timer.seconds();
  report.metrics = state_.summary();
  report.counters = counters_;
  return report;
}

graph::PartitionMetrics Session::metrics() const { return state_.snapshot(); }

void Session::throw_if_failed() const {
  if (transport_failure_) std::rethrow_exception(transport_failure_);
}

void Session::adopt_rebalance(const graph::Partitioning& rebalanced) {
  throw_if_failed();
  if (rebalanced.num_parts != partitioning_.num_parts) {
    throw DeltaError("adopt_rebalance: rebalanced partitioning has " +
                     std::to_string(rebalanced.num_parts) +
                     " parts but the session has " +
                     std::to_string(partitioning_.num_parts));
  }
  if (rebalanced.num_vertices() > graph_.num_vertices()) {
    throw DeltaError(
        "adopt_rebalance: rebalanced partitioning covers " +
        std::to_string(rebalanced.num_vertices()) +
        " vertices but the session's graph has only " +
        std::to_string(graph_.num_vertices()));
  }
  runtime::WallTimer timer;
  const graph::VertexId covered = rebalanced.num_vertices();
  // Validate before mutating: a mid-loop throw must not leave a
  // half-adopted assignment behind.  Ids dead in the session's graph are
  // skipped in both loops: under deferred compaction a vertex removed
  // after the snapshot is still assigned there, and must stay retired.
  for (graph::VertexId v = 0; v < covered; ++v) {
    if (!graph_.is_live(v)) continue;
    const graph::PartId target =
        rebalanced.part[static_cast<std::size_t>(v)];
    if (target < 0 || target >= partitioning_.num_parts) {
      throw DeltaError(
          "adopt_rebalance: assignment out of range for vertex " +
          std::to_string(v));
    }
  }
  for (graph::VertexId v = 0; v < covered; ++v) {
    if (!graph_.is_live(v)) continue;
    const graph::PartId target =
        rebalanced.part[static_cast<std::size_t>(v)];
    if (target == partitioning_.part[static_cast<std::size_t>(v)]) continue;
    // move_vertex keeps the weights, cut and boundary index exact, so
    // adoption costs O(moved vertices x their degree), not a rescan.
    state_.move_vertex(graph_, partitioning_, v, target);
  }
  counters_.repartitions += 1;
  counters_.repartition_seconds += timer.seconds();
  pending_updates_ = 0;
  pending_vertex_changes_ = 0;
}

// pigp:steady-state
void Session::swap_in_rebalance(graph::Graph& g, graph::Partitioning& p,
                                graph::PartitionState& state,
                                std::uint64_t remap_tag) {
  throw_if_failed();
  // Every check runs before the first swap, so a mismatch leaves both
  // sides as they were.
  if (remap_tag != remap_epoch() ||
      g.num_vertices() != graph_.num_vertices() ||
      g.num_edges() != graph_.num_edges() ||
      p.num_parts != partitioning_.num_parts ||
      p.num_vertices() != g.num_vertices() ||
      state.num_parts() != p.num_parts) {
    throw DeltaError(
        "swap_in_rebalance: the rebalanced buffers are not a copy of the "
        "session's current graph");
  }
#if defined(PIGP_VALIDATE) || !defined(NDEBUG)
  // operator== is structural; the cached analyses also read the keys.
  if (!(g == graph_) || g.vertex_keys() != graph_.vertex_keys() ||
      g.next_vertex_key() != graph_.next_vertex_key()) {
    throw DeltaError(
        "swap_in_rebalance: the rebalanced graph differs from the "
        "session's");
  }
#endif
  runtime::WallTimer timer;
  std::swap(graph_, g);
  std::swap(partitioning_, p);
  std::swap(state_, state);
  counters_.repartitions += 1;
  counters_.repartition_seconds += timer.seconds();
  pending_updates_ = 0;
  pending_vertex_changes_ = 0;
}

SessionReport Session::finish_update(const runtime::WallTimer& started,
                                     graph::Partitioning old,
                                     graph::VertexId n_old) {
  SessionReport report;
  const SessionConfig& config = resolved_.session;
  // The imbalance rule judges the state with the new vertices placed, so
  // only the count rules are decided before step 1.
  if (config.batch_policy != BatchPolicy::imbalance &&
      batch_due(config, pending_vertex_changes_, state_)) {
    // The backend runs step 1 (assignment of the new vertices) itself —
    // no point paying for an eager pass it would repeat.  run_backend
    // restores the graph/partitioning/state invariant itself if the
    // backend throws.
    run_backend(report, std::move(old), n_old);
  } else {
    // Deferred: place the new vertices now (step 1, in place through the
    // state and the workspace's seeded BFS) so the session stays
    // queryable between repartitions, then check the imbalance trigger.
    // Only the placements are folded into the state — O(Σ deg(new)).
    runtime::WallTimer assign_timer;
    core::extend_assignment_state(graph_, old, n_old, state_, workspace_);
    partitioning_ = std::move(old);
    counters_.update_seconds += assign_timer.seconds();
    if (batch_due(config, pending_vertex_changes_, state_)) {
      run_backend(report, std::move(partitioning_), graph_.num_vertices());
    }
  }
  report.pending_updates = pending_updates_;
  report.seconds = started.seconds();
  report.metrics = state_.summary();
  report.counters = counters_;
  return report;
}

void Session::run_backend(SessionReport& report, graph::Partitioning old,
                          graph::VertexId n_old) {
  runtime::WallTimer timer;
  // O(Δ) rollback protection: every assignment change the backend makes
  // is recorded in this window, so exception rollback costs what the
  // failed run moved (plus an O(P) aggregate restore), not an O(V) copy.
  graph::PartitionState::RollbackWindow window(state_);
  partitioning_ = std::move(old);
  BackendResult result;
  try {
    result = backend_->repartition(graph_, partitioning_, n_old, state_,
                                   workspace_);
    check_backend_invariants(n_old);
  } catch (...) {
    // A wire failure that reaches this frame already spent the SPMD
    // backend's retry budget (or was fatal-classified) — peer ranks may be
    // gone for good, so latch it and make every further mutating call
    // rethrow instead of hanging on a dead group (transport_failed();
    // clear_error() is the explicit way back).  Other exceptions stay
    // one-shot.
    try {
      throw;
    } catch (const TransportError&) {
      transport_failure_ = std::current_exception();
    } catch (...) {
    }
    // Keep the graph/partitioning/state invariant intact for the caller:
    // undo to the pre-backend assignment (the appended vertices end
    // kUnassigned again — they were placed inside the window) and re-run
    // step 1 so the session stays fully queryable.
    window.undo(graph_, partitioning_);
    partitioning_.part.resize(static_cast<std::size_t>(n_old));
    core::extend_assignment_state(graph_, partitioning_, n_old, state_,
                                  workspace_);
    throw;
  }

  report.repartitioned = true;
  report.refine = result.refine_stats;
  report.timings = result.timings;

  counters_.repartitions += 1;
  counters_.balance_stages +=
      static_cast<std::int64_t>(result.balance_result.stages.size());
  counters_.lp_iterations += result.refine_stats.lp_iterations;
  for (const core::BalanceStage& stage : result.balance_result.stages) {
    counters_.lp_iterations += stage.lp_iterations;
  }
  counters_.repartition_seconds += timer.seconds();
  report.balance = std::move(result.balance_result);

  pending_updates_ = 0;
  pending_vertex_changes_ = 0;
}

void Session::check_backend_invariants(graph::VertexId n_old) {
#if defined(PIGP_VALIDATE) || !defined(NDEBUG)
  // Debug / PIGP_VALIDATE=ON builds keep the historical full validate —
  // an O(V) scan of every assignment.
  (void)n_old;
  partitioning_.validate(graph_);
#else
  // O(Δ + boundary + P) invariant check instead of the O(V) sweep (the
  // batch-style backends already validated their fresh answer before
  // folding it in).  The vertices below n_old were validated when they
  // entered; the in-place pipeline only ever rewrites assignments through
  // PartitionState::move_vertex, which rejects out-of-range destinations —
  // so checking sizes, the appended tail, the weight conservation law and
  // the boundary-index invariant covers everything a full validate would
  // catch short of memory corruption.
  const graph::VertexId n = graph_.num_vertices();
  PIGP_CHECK(partitioning_.num_vertices() == n,
             "backend left the partitioning covering the wrong vertex count");
  PIGP_CHECK(partitioning_.num_parts == resolved_.session.num_parts,
             "backend changed the partition count");
  for (graph::VertexId v = n_old; v < n; ++v) {
    const graph::PartId q = partitioning_.part[static_cast<std::size_t>(v)];
    PIGP_CHECK(q >= 0 && q < partitioning_.num_parts,
               "appended vertex left unassigned or out of range");
  }
  double total = 0.0;
  for (const double w : state_.weights()) total += w;
  const double expected = graph_.total_vertex_weight();
  PIGP_CHECK(std::abs(total - expected) <=
                 1e-6 * std::max(1.0, std::abs(expected)),
             "maintained partition weights no longer sum to the graph total");
  boundary_tally_.assign(static_cast<std::size_t>(partitioning_.num_parts),
                         0);
  state_.for_each_boundary([this](graph::VertexId v) {
    const graph::PartId q = partitioning_.part[static_cast<std::size_t>(v)];
    PIGP_CHECK(q >= 0 && q < partitioning_.num_parts &&
                   state_.external_degree(v) > 0,
               "boundary index inconsistent with the assignment");
    ++boundary_tally_[static_cast<std::size_t>(q)];
  });
  for (graph::PartId q = 0; q < partitioning_.num_parts; ++q) {
    const std::size_t counted = state_.boundary_vertices(q).size();
    PIGP_CHECK(boundary_tally_[static_cast<std::size_t>(q)] ==
                   static_cast<std::int64_t>(counted),
               "boundary index counts inconsistent with its membership");
  }
#endif
}

}  // namespace pigp
