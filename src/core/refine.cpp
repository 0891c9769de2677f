#include "core/refine.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <span>

#include "core/layering.hpp"
#include "core/part_tally.hpp"
#include "core/workspace.hpp"
#include "graph/partition_state.hpp"
#include "support/check.hpp"

namespace pigp::core {
namespace {

using graph::PartitionState;

/// A kept round that improves the cut by less than this ends refinement.
constexpr double kMinGain = 1.0;

using Buckets = pigp::DenseMatrix<std::vector<GainCandidate>>;

/// The bucket cell (part(v), best) of boundary vertex \p v with analysis
/// \p a, or nullopt when v is no candidate (best gain <= 0).
std::optional<std::size_t> bucket_cell(
    const graph::Partitioning& p,
    const PartitionState::VertexAnalysis& a, graph::VertexId v) {
  if (a.best < 0 || a.gain <= 0.0) return std::nullopt;
  return static_cast<std::size_t>(p.part[static_cast<std::size_t>(v)]) *
             static_cast<std::size_t>(p.num_parts) +
         static_cast<std::size_t>(a.best);
}

/// What one full walk of the boundary saw.
struct BoundaryWalk {
  std::int64_t boundary = 0;  ///< boundary vertices visited
  std::int64_t analysed = 0;  ///< invalid slots filled on the way
};

/// Fill the (i, j) candidate buckets with one ascending walk of the
/// state's boundary: fill each invalid analysis slot, append each vertex
/// whose best gain is > 0 to its (part, best) bucket and count the
/// boundary.  Each bucket is ascending by vertex id — its order feeds a
/// floating-point gain sum in the LP objective.  Capacity is reused.
// pigp:steady-state
BoundaryWalk assemble_candidates(const graph::Graph& g,
                                 const graph::Partitioning& p,
                                 const PartitionState& state,
                                 PartTally& tally, Buckets& candidates) {
  const auto parts = static_cast<std::size_t>(p.num_parts);
  if (candidates.rows() != parts || candidates.cols() != parts) {
    candidates = Buckets(parts, parts);
  } else {
    for (std::size_t c = 0; c < parts * parts; ++c) {
      candidates.data()[c].clear();
    }
  }
  tally.resize(parts);
  BoundaryWalk walk;
  state.for_each_boundary([&](graph::VertexId v) {
    ++walk.boundary;
    const auto a = cached_analysis(g, p, state, v, tally, walk.analysed);
    if (const auto cell = bucket_cell(p, a, v)) {
      candidates.data()[*cell].push_back(GainCandidate{v, a.gain});
    }
  });
  return walk;
}

/// Collect the vertices a kept round's \p moves touched — the movers and
/// their neighbours, the only ones whose analysis, part or boundary
/// membership the round can have changed — into w.refine_touched, each
/// once.  Returns false, with the collection cut short, as soon as they
/// outnumber \p limit.
// pigp:steady-state
bool collect_touched(const graph::Graph& g,
                     std::span<const PartitionState::JournalEntry> moves,
                     std::size_t limit, Workspace& w) {
  auto& mark = w.refine_touched_mark;
  for (const graph::VertexId u : w.refine_touched) {
    mark[static_cast<std::size_t>(u)] = 0;
  }
  w.refine_touched.clear();
  if (mark.size() < static_cast<std::size_t>(g.num_vertices())) {
    mark.resize(static_cast<std::size_t>(g.num_vertices()), 0);
  }
  const auto touch = [&w, &mark](graph::VertexId u) {
    const auto ui = static_cast<std::size_t>(u);
    if (mark[ui] != 0) return;
    mark[ui] = 1;
    w.refine_touched.push_back(u);
  };
  for (const PartitionState::JournalEntry& m : moves) {
    touch(m.v);
    for (const graph::VertexId u : g.neighbors(m.v)) touch(u);
    if (w.refine_touched.size() > limit) return false;
  }
  return true;
}

/// Bring the buckets from the partitioning before a kept round to the one
/// after it, touching only w.refine_touched (collect_touched): re-analyse
/// the touched boundary vertices whose slot is invalid, drop every touched
/// id from its bucket, and merge the touched candidates back so that each
/// bucket stays ascending by id.  Every other boundary vertex kept its
/// part, its membership and its exact analysis, so the buckets equal a
/// fresh assemble_candidates.  O(Σ deg(moved) + candidates), with no
/// allocation once the buffers are warm.  Returns the slots analysed.
// pigp:steady-state
std::int64_t rebucket_touched(const graph::Graph& g,
                              const graph::Partitioning& p,
                              const PartitionState& state, Workspace& w) {
  auto& entries = w.refine_rebucket;
  entries.clear();
  std::int64_t analysed = 0;
  for (const graph::VertexId v : w.refine_touched) {
    if (!state.is_boundary(v)) continue;
    const auto a = cached_analysis(g, p, state, v, w.refine_tally, analysed);
    if (const auto cell = bucket_cell(p, a, v)) {
      entries.emplace_back(*cell, GainCandidate{v, a.gain});
    }
  }
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first < b.first;
              return a.second.vertex < b.second.vertex;
            });

  const auto parts = static_cast<std::size_t>(p.num_parts);
  for (std::size_t c = 0; c < parts * parts; ++c) {
    std::vector<GainCandidate>& bucket = w.refine_candidates.data()[c];
    bucket.erase(std::remove_if(bucket.begin(), bucket.end(),
                                [&w](const GainCandidate& x) {
                                  return w.refine_touched_mark[static_cast<
                                             std::size_t>(x.vertex)] != 0;
                                }),
                 bucket.end());
  }
  // Merge each cell's new entries from the back, in place: no temporary
  // buffer, and the bucket only grows into its own capacity.
  for (std::size_t lo = 0; lo < entries.size();) {
    const std::size_t cell = entries[lo].first;
    std::size_t hi = lo;
    while (hi < entries.size() && entries[hi].first == cell) ++hi;
    std::vector<GainCandidate>& bucket = w.refine_candidates.data()[cell];
    std::size_t kept = bucket.size();
    std::size_t added = hi;
    bucket.resize(kept + (hi - lo));
    for (std::size_t out = bucket.size(); added > lo;) {
      const GainCandidate& next = entries[added - 1].second;
      if (kept > 0 && bucket[kept - 1].vertex > next.vertex) {
        bucket[--out] = bucket[--kept];
      } else {
        bucket[--out] = next;
        --added;
      }
    }
    lo = hi;
  }
  return analysed;
}

}  // namespace

// pigp:steady-state
void refinement_flow_into(
    const pigp::DenseMatrix<std::vector<GainCandidate>>& candidates,
    double cap_scale, QuotientFlow& flow) {
  const std::size_t parts = candidates.rows();
  flow.reset(parts, lp::Sense::maximize);
  for (std::size_t i = 0; i < parts; ++i) {
    for (std::size_t j = 0; j < parts; ++j) {
      const auto& bucket = candidates(i, j);
      if (i == j || bucket.empty()) continue;
      double gain_sum = 0.0;
      for (const GainCandidate& c : bucket) gain_sum += c.gain;
      const auto count = static_cast<double>(bucket.size());
      flow.capacity(i, j) = std::max(1.0, std::floor(count * cap_scale));
      flow.cost(i, j) = gain_sum / count;
    }
  }
}

RefineStats refine_partitioning(const graph::Graph& g,
                                graph::Partitioning& partitioning,
                                const RefineOptions& options) {
  // One full rescan to seed the incremental state (it also validates);
  // every round after this maintains the cut in O(deg) per moved vertex.
  graph::PartitionState state(g, partitioning);
  return refine_partitioning(g, partitioning, state, options);
}

RefineStats refine_partitioning(const graph::Graph& g,
                                graph::Partitioning& partitioning,
                                graph::PartitionState& state,
                                const RefineOptions& options, Workspace* ws) {
  RefineStats stats;
  const auto parts = static_cast<std::size_t>(partitioning.num_parts);
  double cut = state.cut_total();
  stats.cut_before = cut;
  stats.cut_after = cut;

  double cap_scale = 1.0;
  // Working storage: pooled in the session workspace when given, call-local
  // otherwise — identical decisions either way.
  Workspace local_ws;
  Workspace& w = ws != nullptr ? *ws : local_ws;
  auto& candidates = w.refine_candidates;

  // How this round's buckets follow from the last round's: the first
  // round walks the boundary once; a kept round's moves are re-bucketed
  // (O(Σ deg(moved) + candidates)); a reverted round restored every
  // assignment and analysis, so its buckets are still exact.
  enum class Next { walk, rebucket, reuse } next = Next::walk;
  BoundaryWalk walk;
  for (int round = 0; round < options.max_rounds; ++round) {
    if (next == Next::walk) {
      walk = assemble_candidates(g, partitioning, state, w.refine_tally,
                                 candidates);
      stats.vertices_analyzed += walk.analysed;
    } else if (next == Next::rebucket) {
      stats.vertices_analyzed += rebucket_touched(g, partitioning, state, w);
    }
#if defined(PIGP_VALIDATE) || !defined(NDEBUG)
    // Debug / PIGP_VALIDATE auditor: every boundary vertex's cached
    // analysis is exact, which pins the state's invalidation rule, and the
    // buckets equal a fresh walk's, which pins the re-bucketing.
    state.for_each_boundary([&](graph::VertexId v) {
      audit_analysis(g, partitioning, state, {&v, 1}, w.refine_tally);
    });
    const BoundaryWalk fresh = assemble_candidates(
        g, partitioning, state, w.refine_tally, w.refine_audit);
    PIGP_CHECK(fresh.analysed == 0 && w.refine_audit == candidates,
               "incremental refinement buckets differ from a boundary walk");
#endif
    // No candidates at all: the flow would have no arcs — skip building
    // it entirely (same terminal decision, and a converged call allocates
    // nothing).
    if (std::all_of(candidates.data(), candidates.data() + parts * parts,
                    [](const auto& bucket) { return bucket.empty(); })) {
      break;
    }

    refinement_flow_into(candidates, cap_scale, w.flow.refinement);
    const FlowResult& flow = solve_flow(w.flow.refinement,
                                        options.simplex, w.flow);
    PIGP_CHECK(flow.status == lp::SolveStatus::optimal,
               "refinement LP must be solvable (l = 0 is feasible)");
    stats.lp_iterations += flow.lp_iterations;
    // The objective is the round's predicted cut gain (flow × mean gain);
    // below half an edge nothing worth moving remains.
    if (flow.objective < 0.5) break;

    // Undo unit: the round's rollback window — O(P) to open, and an undo
    // replays just this round's moves — no O(V) copies per round.
    graph::PartitionState::RollbackWindow window(state);
    apply_gain_transfers(g, partitioning, candidates, flow.moves, state,
                         w.refine_selection);
    ++stats.rounds;

    const double new_cut = state.cut_total();
    if (new_cut > cut) {
      // Batch interactions hurt (dense candidate clusters moving
      // together); roll back and retry with progressively smaller
      // batches.  The undo restores every assignment, and no analysis
      // was stored since the round began with every boundary slot valid,
      // so the slots the replay invalidated are exact again — and so are
      // the buckets.
      window.undo_keeping_analysis(g, partitioning);
      ++stats.rounds_reverted;
      if (cap_scale > 0.2) {
        cap_scale *= 0.5;
        next = Next::reuse;
        continue;
      }
      break;
    }
    // Moves kept: move_vertex invalidated exactly the moved vertices and
    // their neighbours, the analyses the next round recomputes.
    stats.vertices_moved += flow.moved;
    const double gain = cut - new_cut;
    cut = new_cut;
    stats.cut_after = cut;
    if (gain < kMinGain) break;
    // Re-bucket what the moves touched — unless that is more than a
    // quarter of the boundary, where one more walk costs less than
    // sorting and merging it.
    next = collect_touched(g, window.moves(),
                           static_cast<std::size_t>(walk.boundary / 4), w)
               ? Next::rebucket
               : Next::walk;
  }
  return stats;
}

}  // namespace pigp::core
