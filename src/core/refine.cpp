#include "core/refine.hpp"

#include <algorithm>
#include <cmath>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "core/workspace.hpp"
#include "graph/partition_state.hpp"
#include "support/check.hpp"

namespace pigp::core {
namespace {

using MoveAnalysis = Workspace::MoveAnalysis;

/// Best move of boundary vertex \p v: the destination with the largest cut
/// gain out(v, j) - in(v), ties to the smaller partition id (best = -1 when
/// v has no external edge weight).  Reads only the assignments of v and
/// its neighbours — the cache invalidation rule rests on exactly that.
/// \p out is a per-part tally buffer (size num_parts).
MoveAnalysis analyze_vertex(const graph::Graph& g,
                            const graph::Partitioning& p, graph::VertexId v,
                            std::vector<double>& out) {
  const graph::PartId from = p.part[static_cast<std::size_t>(v)];
  const auto nbrs = g.neighbors(v);
  const auto weights = g.incident_edge_weights(v);
  double in = 0.0;
  std::fill(out.begin(), out.end(), 0.0);
  for (std::size_t i = 0; i < nbrs.size(); ++i) {
    const graph::PartId q = p.part[static_cast<std::size_t>(nbrs[i])];
    if (q == from) {
      in += weights[i];
    } else {
      out[static_cast<std::size_t>(q)] += weights[i];
    }
  }
  MoveAnalysis best;
  for (std::size_t q = 0; q < out.size(); ++q) {
    if (out[q] <= 0.0) continue;
    const double gain = out[q] - in;
    if (best.best < 0 || gain > best.gain) {
      best.best = static_cast<graph::PartId>(q);
      best.gain = gain;
    }
  }
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
    out.assign(static_cast<std::size_t>(p.num_parts), 0.0);
#pragma omp for schedule(static)
    for (std::size_t b = 0; b < stale.size(); ++b) {
      const graph::VertexId v = stale[b];
      cache.set(static_cast<std::size_t>(v), analyze_vertex(g, p, v, out));
    }
  }
  return static_cast<std::int64_t>(stale.size());
}

/// Fill the (i, j) candidate buckets from the cached analyses with one walk
/// of the ascending boundary, keeping vertices whose best gain passes the
/// round's condition (> 0 when \p strict, >= 0 otherwise).  Each bucket is
/// ascending by vertex id — its order feeds a floating-point gain sum in
/// the LP objective.  Cells are cleared, capacity reused.
// pigp:steady-state
void assemble_candidates(
    const graph::Partitioning& p,
    const std::vector<graph::VertexId>& boundary,
    const EpochArray<MoveAnalysis>& cache, bool strict,
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
    if (a.best < 0) continue;
    if (strict ? a.gain > 0.0 : a.gain >= 0.0) {
      candidates(static_cast<std::size_t>(p.part[static_cast<std::size_t>(v)]),
                 static_cast<std::size_t>(a.best))
          .push_back(GainCandidate{v, a.gain});
    }
  }
}

#if defined(PIGP_VALIDATE) || !defined(NDEBUG)
/// Debug / PIGP_VALIDATE auditor: every boundary vertex's cached analysis
/// must equal a from-scratch one, which pins the invalidation rule.  \p out
/// is a pooled tally buffer of size num_parts, so the audit allocates
/// nothing and the steady-state zero-allocation tests hold in Debug too.
void audit_analysis(const graph::Graph& g, const graph::Partitioning& p,
                    const std::vector<graph::VertexId>& boundary,
                    const EpochArray<MoveAnalysis>& cache,
                    std::vector<double>& out) {
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

QuotientFlow refinement_flow(
    const pigp::DenseMatrix<std::vector<GainCandidate>>& candidates,
    double cap_scale) {
  const std::size_t parts = candidates.rows();
  QuotientFlow flow(parts, lp::Sense::maximize, 2);
  QuotientFlow::Lane& gain_lane = flow.lanes[0];
  QuotientFlow::Lane& zero_lane = flow.lanes[1];
  zero_lane.cost.fill(1e-3);
  const auto scaled = [cap_scale](double count) {
    return std::max(1.0, std::floor(count * cap_scale));
  };
  for (std::size_t i = 0; i < parts; ++i) {
    for (std::size_t j = 0; j < parts; ++j) {
      const auto& bucket = candidates(i, j);
      if (i == j || bucket.empty()) continue;
      double positive = 0.0;
      double gain_sum = 0.0;
      for (const GainCandidate& c : bucket) {
        if (c.gain > 0.0) {
          positive += 1.0;
          gain_sum += c.gain;
        }
      }
      const double zero = static_cast<double>(bucket.size()) - positive;
      if (positive > 0.0) {
        gain_lane.capacity(i, j) = scaled(positive);
        gain_lane.cost(i, j) = gain_sum / positive;
      }
      if (zero > 0.0) zero_lane.capacity(i, j) = scaled(zero);
    }
  }
  return flow;
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

  bool force_strict = false;
  double cap_scale = 1.0;
  // Working storage: pooled in the session workspace when given, call-local
  // otherwise — identical decisions either way.
  Workspace local_ws;
  Workspace& w = ws != nullptr ? *ws : local_ws;
  auto& journal = w.refine_journal;
  auto& boundary = w.refine_boundary;
  auto& candidates = w.refine_candidates;
  w.refine_analysis.ensure(static_cast<std::size_t>(g.num_vertices()));
  w.refine_analysis.clear();

  // The boundary only changes when a round's moves are kept; a reverted
  // round restores the index exactly, so the retry reuses it.
  state.boundary_ascending(boundary);
  for (int round = 0; round < options.max_rounds; ++round) {
    const bool strict = force_strict || round >= options.strict_after_round;
    stats.vertices_analyzed += refresh_analysis(g, partitioning, boundary,
                                                options.num_threads, w);
    assemble_candidates(partitioning, boundary, w.refine_analysis, strict,
                        candidates);
#if defined(PIGP_VALIDATE) || !defined(NDEBUG)
    // refresh_analysis sized thread 0's tally buffer to num_parts.
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

    const FlowResult flow =
        solve_flow(refinement_flow(candidates, cap_scale), options.solver,
                   options.simplex);
    PIGP_CHECK(flow.status == lp::SolveStatus::optimal,
               "refinement LP must be solvable (l = 0 is feasible)");
    stats.lp_iterations += flow.lp_iterations;
    // Objective is gain-weighted; below this threshold only zero-gain
    // circulation remains.
    if (flow.objective < 0.5) break;

    // Undo unit: the aggregate snapshot is O(P); the partitioning and the
    // (integer) boundary index are restored exactly by replaying the move
    // journal in reverse — no O(V) copies per round.
    const graph::PartitionState::AggregateSnapshot saved =
        state.save_aggregates();
    journal.clear();
    apply_gain_transfers(g, partitioning, candidates, flow.moves, state,
                         w.refine_selection, &journal);
    ++stats.rounds;

    const double new_cut = state.cut_total();
    if (new_cut > cut && options.revert_on_regression) {
      // Batch interactions hurt (usually zero-gain vertices oscillating or
      // dense candidate clusters moving together); roll back and retry in
      // strict mode first, then with progressively smaller batches.  The
      // replay restores every assignment, so every cached analysis stays
      // exact.
      for (auto it = journal.rbegin(); it != journal.rend(); ++it) {
        state.move_vertex(g, partitioning, it->first, it->second);
      }
      state.restore_aggregates(saved);  // erase any floating-point drift
      if (!strict) {
        force_strict = true;
        continue;
      }
      if (cap_scale > 0.2) {
        cap_scale *= 0.5;
        continue;
      }
      break;
    }
    // Moves kept: exactly the moved vertices and their neighbours saw an
    // assignment change, so only their analyses go stale.
    for (const auto& entry : journal) {
      w.refine_analysis.invalidate(static_cast<std::size_t>(entry.first));
      for (const graph::VertexId u : g.neighbors(entry.first)) {
        w.refine_analysis.invalidate(static_cast<std::size_t>(u));
      }
    }
    stats.vertices_moved += flow.moved;
    const double gain = cut - new_cut;
    cut = new_cut;
    stats.cut_after = cut;
    if (gain < options.min_gain) break;
    state.boundary_ascending(boundary);
  }
  return stats;
}

}  // namespace pigp::core
