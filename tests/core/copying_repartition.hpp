#pragma once

// Test-only copying front end over the two engines' in-place entries: copy
// the old partitioning, seed a PartitionState over the copy with
// seed_extension_state, run igp_repartition_in_place or
// spmd_repartition_in_place on it with fresh workspaces, and return the
// copy in result.partitioning.  The library's own copying front end is
// Backend::repartition's plain overload; tests that need options no
// SessionConfig expresses, or an explicit executor, come here instead.

#include <utility>
#include <vector>

#include "core/assign.hpp"
#include "core/igp.hpp"
#include "core/spmd_igp.hpp"
#include "core/workspace.hpp"
#include "graph/graph.hpp"
#include "graph/partition.hpp"
#include "graph/partition_state.hpp"

namespace pigp::test {

/// The flat engine on a copy of \p old_partitioning.
inline core::IgpResult igp_repartition(
    const graph::Graph& g_new, const graph::Partitioning& old_partitioning,
    graph::VertexId n_old, const core::IgpOptions& options = {}) {
  graph::Partitioning working = old_partitioning;
  graph::PartitionState state;
  core::seed_extension_state(g_new, working, state);
  core::Workspace ws;
  core::IgpResult result = core::igp_repartition_in_place(
      g_new, working, n_old, options, state, ws);
  result.partitioning = std::move(working);
  return result;
}

/// The SPMD engine on \p executor's ranks, on a copy of
/// \p old_partitioning.
inline core::IgpResult spmd_repartition(
    core::SpmdExecutor& executor, const graph::Graph& g_new,
    const graph::Partitioning& old_partitioning, graph::VertexId n_old,
    const core::IgpOptions& options = {}) {
  graph::Partitioning working = old_partitioning;
  graph::PartitionState state;
  core::seed_extension_state(g_new, working, state);
  core::Workspace ws;
  std::vector<core::Workspace> rank_ws;
  core::IgpResult result = core::spmd_repartition_in_place(
      executor, g_new, working, n_old, options, state, ws, rank_ws);
  result.partitioning = std::move(working);
  return result;
}

}  // namespace pigp::test
