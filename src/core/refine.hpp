#pragma once

/// \file refine.hpp
/// Step 4 of the incremental partitioner: LP-based cut refinement
/// (Ou & Ranka §2.4, equations 14–16).
///
/// Boundary vertices whose edges into a neighboring partition outweigh
/// their local edges (gain out(v, j) − in(v) > 0) are candidates to move;
/// the LP
///     maximize   Σ l_ij
///     subject to 0 ≤ l_ij ≤ b_ij,  Σ_k (l_qk − l_kq) = 0  ∀q
/// moves as many of them as possible while preserving load balance.  The
/// pass iterates.
///
/// Two deliberate differences from the paper (docs/ARCHITECTURE.md lists
/// them with the other deviations): every round is strict, where the paper
/// admits zero-gain candidates (≥) in its early rounds and switches to >
/// later; and a vertex eligible for several destinations is counted only
/// toward its best-gain destination, so a vertex can never be
/// double-committed by the LP.

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
  lp::NetworkOptions simplex;
};

struct RefineStats {
  int rounds = 0;
  double cut_before = 0.0;
  double cut_after = 0.0;
  std::int64_t vertices_moved = 0;
  std::int64_t lp_iterations = 0;
  /// Boundary vertices whose best move was (re)computed: on the first
  /// round those whose cached analysis a state mutator invalidated (the
  /// whole boundary of a fresh state), then at most Σ (deg + 1) over the
  /// previous kept round's moved vertices, nothing after a reverted one.
  std::int64_t vertices_analyzed = 0;
  /// Rounds whose moves raised the cut and were undone (each halves the
  /// batch cap, or ends refinement once the cap is small); counted in
  /// rounds too.
  int rounds_reverted = 0;
};

/// The refinement LP (eqs. 14–16) as a quotient flow, with a gain-aware
/// objective: each pair (i, j) with candidates gets one arc whose capacity
/// is its candidate count and whose cost is their mean gain, so the LP
/// prefers the moves that cut the most.  \p cap_scale < 1 shrinks batches
/// after a regression (smaller batches interact less).  Written into
/// \p flow, reusing its storage.
void refinement_flow_into(
    const pigp::DenseMatrix<std::vector<GainCandidate>>& candidates,
    double cap_scale, QuotientFlow& flow);

/// Iteratively refine \p partitioning in place; returns statistics.  Load
/// balance is preserved exactly (zero-net-flow constraints).  This batch
/// entry seeds a PartitionState with one O(V+E) rescan and delegates to
/// the state-driven overload.
[[nodiscard]] RefineStats refine_partitioning(
    const graph::Graph& g, graph::Partitioning& partitioning,
    const RefineOptions& options = {});

/// Boundary-local refinement over a maintained state.  Each boundary
/// vertex's best move (destination, gain) is read from the state's vertex
/// analysis cache (PartitionState::analysis), which outlives the call.
/// The first round assembles the candidate buckets in one ordered walk of
/// the state's boundary bitset, analysing only the slots a mutator
/// invalidated.  The buckets then live across rounds: after a kept round
/// only its movers and their neighbours are re-analysed and re-bucketed,
/// so the round costs O(Σ deg(moved) + candidates) — or one more walk
/// when they exceed a quarter of the boundary; after a reverted round
/// nothing changes (the undo restores the partitioning and re-validates
/// the slots it invalidated).  One analysis (core::analyze_vertex) sums
/// the vertex's out(v, j) in a sparse PartTally: O(deg), whatever the
/// part count.  Per-round cuts come from the O(deg)-per-move
/// bookkeeping, and a regressing round is undone through its
/// PartitionState::RollbackWindow (O(moved + P)).  \p state must
/// describe (g, partitioning) on entry and is left consistent with the
/// refined partitioning.  A non-null \p ws supplies the tally, bucket
/// and touched-vertex buffers, so a call whose buffers are warm
/// allocates nothing; decisions are identical either way, and whatever
/// the state's cache holds.
[[nodiscard]] RefineStats refine_partitioning(
    const graph::Graph& g, graph::Partitioning& partitioning,
    graph::PartitionState& state, const RefineOptions& options = {},
    Workspace* ws = nullptr);

}  // namespace pigp::core
