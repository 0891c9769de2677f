#pragma once

/// \file igp.hpp
/// The Incremental Graph Partitioner (IGP / IGPR) driver — the paper's
/// primary contribution, chaining the four steps of Figure 1:
///
///   1. assign new vertices to the partition of their nearest old vertex,
///   2. layer each partition (closest-outside-partition labels, ε_ij),
///   3. balance load with the movement-minimizing LP (multi-stage α),
///   4. optionally refine the cut with the movement-maximizing LP (IGPR).
///
/// The driver runs on a pre-extended graph (new vertices appended to the
/// old id space).  Deltas with deletions reach it through pigp::Session,
/// which applies them to its mutable graph and keeps the partitioning's
/// ids in step.

#include <cstdint>

#include "core/assign.hpp"
#include "core/balance.hpp"
#include "core/refine.hpp"
#include "graph/graph.hpp"
#include "graph/partition.hpp"
#include "graph/partition_state.hpp"

namespace pigp::core {

struct Workspace;

/// Plain-data options for every pipeline driver.  Knob propagation into
/// the nested structs lives in SessionConfig::resolve()
/// (src/api/config.hpp) — the single derivation path, guarded by
/// compile-time field-count asserts so new fields cannot be skipped.
struct IgpOptions {
  /// Run the refinement pass (IGPR) after balancing (IGP).
  bool refine = true;
  BalanceOptions balance;
  RefineOptions refinement;
};

/// Wall-clock breakdown of one repartitioning (seconds).
struct IgpTimings {
  double assign = 0.0;
  double balance = 0.0;  ///< includes per-stage layering + LP + transfer
  double refine = 0.0;
  double total = 0.0;
};

struct IgpResult {
  /// The new partitioning when a copying front end (Backend::repartition's
  /// plain overload, multilevel_repartition) ran; empty after an in-place
  /// run — the answer IS the partitioning that run was handed.
  graph::Partitioning partitioning;
  /// balance_result.stages.size() is the paper's IGP(k) stage count.
  BalanceResult balance_result;
  RefineStats refine_stats;
  IgpTimings timings;
};

/// Run the IGP/IGPR pipeline *in place* on \p partitioning (covering
/// [0, n_old) on entry, all of \p g_new on return) and \p state (describing
/// (g_new, partitioning) with the appended tail unassigned on entry, the
/// result on return), with every reusable buffer drawn from \p ws — zero
/// per-call O(V) allocations or copies once the workspace is warm.  The
/// whole pipeline is boundary-local: layering seeds, balance weights and
/// refinement candidates come from the maintained index instead of full
/// rescans.  result.partitioning is left empty.  On exception
/// partitioning/state are left inconsistent; the session rolls back
/// through its own PartitionState::RollbackWindow.
[[nodiscard]] IgpResult igp_repartition_in_place(
    const graph::Graph& g_new, graph::Partitioning& partitioning,
    graph::VertexId n_old, const IgpOptions& options,
    graph::PartitionState& state, Workspace& ws);

}  // namespace pigp::core
