#include "core/refine.hpp"

#include <algorithm>
#include <cmath>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "core/part_tally.hpp"
#include "core/workspace.hpp"
#include "graph/partition_state.hpp"
#include "support/check.hpp"

namespace pigp::core {
namespace {

using MoveAnalysis = Workspace::MoveAnalysis;

/// A kept round that improves the cut by less than this ends refinement.
constexpr double kMinGain = 1.0;

/// Best move of boundary vertex \p v: the destination with the largest cut
/// gain out(v, j) - in(v), ties to the smaller partition id (best = -1 when
/// v has no external edge weight).  Reads only the assignments of v and
/// its neighbours — the cache invalidation rule rests on exactly that.
/// \p out is an all-zero tally, left all-zero; O(deg).
MoveAnalysis analyze_vertex(const graph::Graph& g,
                            const graph::Partitioning& p, graph::VertexId v,
                            PartTally& out) {
  const graph::PartId from = p.part[static_cast<std::size_t>(v)];
  const auto nbrs = g.neighbors(v);
  const auto weights = g.incident_edge_weights(v);
  double in = 0.0;
  for (std::size_t i = 0; i < nbrs.size(); ++i) {
    const graph::PartId q = p.part[static_cast<std::size_t>(nbrs[i])];
    if (q == from) {
      in += weights[i];
    } else {
      out.add(q, weights[i]);
    }
  }
  MoveAnalysis best;
  for (const graph::PartId q : out.touched()) {
    if (out.sum(q) <= 0.0) continue;
    const double gain = out.sum(q) - in;
    if (best.best < 0 || gain > best.gain ||
        (gain == best.gain && q < best.best)) {
      best.best = q;
      best.gain = gain;
    }
  }
  out.clear();
  return best;
}

/// Analyse every vertex of the ascending \p boundary that has no live
/// cache entry — all of it on the first round, afterwards only what the
/// last kept round invalidated.  Each vertex writes only its own slot, so
/// the re-analysis runs in parallel for large stale sets with results
/// independent of the thread count.  Returns the number analysed.
std::int64_t refresh_analysis(const graph::Graph& g,
                              const graph::Partitioning& p,
                              const std::vector<graph::VertexId>& boundary,
                              int num_threads, Workspace& ws) {
  auto& cache = ws.refine_analysis;
  auto& stale = ws.refine_stale;
  stale.clear();
  for (const graph::VertexId v : boundary) {
    if (!cache.contains(static_cast<std::size_t>(v))) stale.push_back(v);
  }
  const bool parallel = num_threads > 1 && stale.size() > 4096;
  ws.refine_tallies.resize(static_cast<std::size_t>(std::max(1, num_threads)));

#pragma omp parallel num_threads(num_threads) if (parallel)
  {
#ifdef _OPENMP
    const int tid = parallel ? omp_get_thread_num() : 0;
#else
    const int tid = 0;
#endif
    auto& out = ws.refine_tallies[static_cast<std::size_t>(tid)];
    out.resize(static_cast<std::size_t>(p.num_parts));
#pragma omp for schedule(static)
    for (std::size_t b = 0; b < stale.size(); ++b) {
      const graph::VertexId v = stale[b];
      cache.set(static_cast<std::size_t>(v), analyze_vertex(g, p, v, out));
    }
  }
  return static_cast<std::int64_t>(stale.size());
}

/// Fill the (i, j) candidate buckets from the cached analyses with one walk
/// of the ascending boundary, keeping vertices whose best gain is > 0.
/// Each bucket is ascending by vertex id — its order feeds a floating-point
/// gain sum in the LP objective.  Cells are cleared, capacity reused.
// pigp:steady-state
void assemble_candidates(
    const graph::Partitioning& p,
    const std::vector<graph::VertexId>& boundary,
    const EpochArray<MoveAnalysis>& cache,
    pigp::DenseMatrix<std::vector<GainCandidate>>& candidates) {
  const auto parts = static_cast<std::size_t>(p.num_parts);
  if (candidates.rows() != parts || candidates.cols() != parts) {
    candidates = pigp::DenseMatrix<std::vector<GainCandidate>>(parts, parts);
  } else {
    for (std::size_t i = 0; i < parts; ++i) {
      for (std::size_t j = 0; j < parts; ++j) candidates(i, j).clear();
    }
  }
  for (const graph::VertexId v : boundary) {
    const MoveAnalysis a = cache.get(static_cast<std::size_t>(v));
    if (a.best < 0 || a.gain <= 0.0) continue;
    candidates(static_cast<std::size_t>(p.part[static_cast<std::size_t>(v)]),
               static_cast<std::size_t>(a.best))
        .push_back(GainCandidate{v, a.gain});
  }
}

#if defined(PIGP_VALIDATE) || !defined(NDEBUG)
/// Debug / PIGP_VALIDATE auditor: every boundary vertex's cached analysis
/// must equal a from-scratch one, which pins the invalidation rule.  \p out
/// is a pooled tally sized for num_parts, so the audit allocates nothing
/// and the steady-state zero-allocation tests hold in Debug too.
void audit_analysis(const graph::Graph& g, const graph::Partitioning& p,
                    const std::vector<graph::VertexId>& boundary,
                    const EpochArray<MoveAnalysis>& cache, PartTally& out) {
  for (const graph::VertexId v : boundary) {
    const auto vi = static_cast<std::size_t>(v);
    const MoveAnalysis fresh = analyze_vertex(g, p, v, out);
    PIGP_CHECK(cache.contains(vi) && cache.get(vi).best == fresh.best &&
                   cache.get(vi).gain == fresh.gain,
               "refine move-analysis cache is out of date");
  }
}
#endif

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
  auto& boundary = w.refine_boundary;
  auto& candidates = w.refine_candidates;
  w.refine_analysis.ensure(static_cast<std::size_t>(g.num_vertices()));
  w.refine_analysis.clear();

  // The boundary only changes when a round's moves are kept; a reverted
  // round restores the index exactly, so the retry reuses it.
  state.boundary_ascending(boundary);
  for (int round = 0; round < options.max_rounds; ++round) {
    stats.vertices_analyzed += refresh_analysis(g, partitioning, boundary,
                                                options.num_threads, w);
    assemble_candidates(partitioning, boundary, w.refine_analysis,
                        candidates);
#if defined(PIGP_VALIDATE) || !defined(NDEBUG)
    // refresh_analysis sized thread 0's tally for num_parts.
    audit_analysis(g, partitioning, boundary, w.refine_analysis,
                   w.refine_tallies.front());
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
      // batches.  The undo restores every assignment, so every cached
      // analysis stays exact.
      window.undo(g, partitioning);
      ++stats.rounds_reverted;
      if (cap_scale > 0.2) {
        cap_scale *= 0.5;
        continue;
      }
      break;
    }
    // Moves kept: exactly the moved vertices and their neighbours saw an
    // assignment change, so only their analyses go stale.
    for (const graph::PartitionState::JournalEntry& move : window.moves()) {
      w.refine_analysis.invalidate(static_cast<std::size_t>(move.v));
      for (const graph::VertexId u : g.neighbors(move.v)) {
        w.refine_analysis.invalidate(static_cast<std::size_t>(u));
      }
    }
    stats.vertices_moved += flow.moved;
    const double gain = cut - new_cut;
    cut = new_cut;
    stats.cut_after = cut;
    if (gain < kMinGain) break;
    state.boundary_ascending(boundary);
  }
  return stats;
}

}  // namespace pigp::core
