#include "core/refine.hpp"

#include <algorithm>
#include <cmath>

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

/// Fill the (i, j) candidate buckets from the cached analyses with one walk
/// of the ascending boundary, keeping vertices whose best gain is > 0.
/// Each bucket is ascending by vertex id — its order feeds a floating-point
/// gain sum in the LP objective.  Cells are cleared, capacity reused.
// pigp:steady-state
void assemble_candidates(
    const graph::Partitioning& p, const PartitionState& state,
    const std::vector<graph::VertexId>& boundary,
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
    const auto a = state.analysis(v);
    PIGP_ASSERT(a);  // refresh_analyses filled every boundary slot
    if (a->best < 0 || a->gain <= 0.0) continue;
    candidates(static_cast<std::size_t>(p.part[static_cast<std::size_t>(v)]),
               static_cast<std::size_t>(a->best))
        .push_back(GainCandidate{v, a->gain});
  }
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
  auto& boundary = w.refine_boundary;
  auto& candidates = w.refine_candidates;

  // The boundary only changes when a round's moves are kept; a reverted
  // round restores the index exactly, so the retry reuses it.
  state.boundary_ascending(boundary);
  for (int round = 0; round < options.max_rounds; ++round) {
    stats.vertices_analyzed += refresh_analyses(g, partitioning, state,
                                                boundary, w.refine_tally);
    assemble_candidates(partitioning, state, boundary, candidates);
#if defined(PIGP_VALIDATE) || !defined(NDEBUG)
    // Debug / PIGP_VALIDATE auditor: every boundary vertex's cached
    // analysis is exact, which pins the state's invalidation rule.
    // refresh_analyses sized the tally for num_parts.
    audit_analysis(g, partitioning, state, boundary, w.refine_tally);
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
      // so the slots the replay invalidated are exact again.
      window.undo_keeping_analysis(g, partitioning);
      ++stats.rounds_reverted;
      if (cap_scale > 0.2) {
        cap_scale *= 0.5;
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
    state.boundary_ascending(boundary);
  }
  return stats;
}

}  // namespace pigp::core
