#pragma once

/// \file refine.hpp
/// Step 4 of the incremental partitioner: LP-based cut refinement
/// (Ou & Ranka §2.4, equations 14–16).
///
/// Boundary vertices whose edges into a neighboring partition outweigh (or
/// equal) their local edges are candidates to move; the LP
///     maximize   Σ l_ij
///     subject to 0 ≤ l_ij ≤ b_ij,  Σ_k (l_qk − l_kq) = 0  ∀q
/// moves as many of them as possible while preserving load balance.  The
/// pass iterates; after a configurable number of rounds the candidate
/// condition switches from ≥ to > ("strict") so zero-gain vertices stop
/// oscillating between boundaries (exactly the paper's remedy).
///
/// One deliberate difference from the paper's prose: a vertex eligible for
/// several destinations is counted only toward its best-gain destination,
/// so a vertex can never be double-committed by the LP.  bench_ablation
/// quantifies the (negligible) difference.

#include <cstdint>
#include <vector>

#include "core/balance.hpp"
#include "core/transfer.hpp"
#include "graph/graph.hpp"
#include "graph/partition.hpp"
#include "graph/partition_state.hpp"

namespace pigp::core {

struct Workspace;

struct RefineOptions {
  int max_rounds = 8;
  /// Round index from which candidates require out(v,j) - in(v) > 0
  /// instead of >= 0.
  int strict_after_round = 2;
  /// Stop when a round improves the cut by less than this.
  double min_gain = 1.0;
  /// Undo a round that made the cut worse (batch moves can interact) and
  /// stop.
  bool revert_on_regression = true;
  LpSolverKind solver = LpSolverKind::dense;
  lp::SimplexOptions simplex;
  int num_threads = 1;
};

struct RefineStats {
  int rounds = 0;
  double cut_before = 0.0;
  double cut_after = 0.0;
  std::int64_t vertices_moved = 0;
  std::int64_t lp_iterations = 0;
  /// Boundary vertices whose best move was (re)computed: the whole
  /// boundary on the first round, then at most Σ (deg + 1) over the
  /// previous kept round's moved vertices.
  std::int64_t vertices_analyzed = 0;
};

/// The refinement LP (eqs. 14–16) as a quotient flow, with a gain-aware
/// objective: the paper's raw Σ l_ij lets zero-gain candidates (admitted
/// by the non-strict condition) churn the boundary without improving the
/// cut.  Each pair gets a positive-gain lane (capacity = its gain > 0
/// candidates, cost = their mean gain) and a zero-gain lane (the rest, at
/// a tiny cost) that only routes flow to close circulation — the paper's
/// own reason for admitting them.  \p cap_scale < 1 shrinks batches after
/// a regression (smaller batches interact less).  Exposed for tests.
[[nodiscard]] QuotientFlow refinement_flow(
    const pigp::DenseMatrix<std::vector<GainCandidate>>& candidates,
    double cap_scale);

/// Iteratively refine \p partitioning in place; returns statistics.  Load
/// balance is preserved exactly (zero-net-flow constraints).  This batch
/// entry seeds a PartitionState with one O(V+E) rescan and delegates to
/// the state-driven overload.
[[nodiscard]] RefineStats refine_partitioning(
    const graph::Graph& g, graph::Partitioning& partitioning,
    const RefineOptions& options = {});

/// Boundary-local refinement over a maintained state.  Each boundary
/// vertex's best move (destination, gain) is cached per call: the first
/// round analyses the whole boundary, and a round whose moves are kept
/// re-analyses only the moved vertices and their neighbours (a reverted
/// round restores every assignment and invalidates nothing), so a round
/// costs O(Σ deg(moved)) plus one ordered walk of the state's boundary
/// bitset that assembles the candidate buckets.  Per-round cuts come from
/// the O(deg)-per-move bookkeeping, and a regressing round is undone by
/// replaying its move journal in reverse (O(moved)).  \p state must
/// describe (g, partitioning) on entry and is left consistent with the
/// refined partitioning.  A non-null \p ws supplies the cache, boundary,
/// candidate and journal buffers, so a converged call (no positive-gain
/// candidates) allocates nothing; decisions are identical either way and
/// for every num_threads.
[[nodiscard]] RefineStats refine_partitioning(
    const graph::Graph& g, graph::Partitioning& partitioning,
    graph::PartitionState& state, const RefineOptions& options = {},
    Workspace* ws = nullptr);

}  // namespace pigp::core
