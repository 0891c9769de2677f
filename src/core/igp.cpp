#include "core/igp.hpp"

#include <utility>

#include "core/workspace.hpp"
#include "runtime/timer.hpp"

namespace pigp::core {

IgpResult IncrementalPartitioner::repartition(
    const graph::Graph& g_new, const graph::Partitioning& old_partitioning,
    graph::VertexId n_old, graph::PartitionState* state, Workspace* ws) const {
  // Copying adapter over the in-place pipeline (sessions skip even the
  // copy by calling repartition_in_place on their own partitioning).
  graph::Partitioning working = old_partitioning;
  graph::PartitionState local_state;
  if (state == nullptr) {
    seed_extension_state(g_new, working, local_state);
    state = &local_state;
  }
  Workspace local_ws;
  IgpResult result = repartition_in_place(g_new, working, n_old, *state,
                                          ws != nullptr ? *ws : local_ws);
  result.partitioning = std::move(working);
  return result;
}

IgpResult IncrementalPartitioner::repartition_in_place(
    const graph::Graph& g_new, graph::Partitioning& partitioning,
    graph::VertexId n_old, graph::PartitionState& state, Workspace& ws) const {
  const runtime::WallTimer total_timer;
  IgpResult result;

  // Step 1: seeded assignment of the appended vertices, folded straight
  // into the maintained state — O(Σ deg(new) + shell), not an O(V+E)
  // multi-source sweep, and allocation-free once the workspace is warm.
  runtime::WallTimer timer;
  AssignOptions assign_options;
  assign_options.num_threads = options_.num_threads;
  extend_assignment_state(g_new, partitioning, n_old, state, ws,
                          assign_options);
  result.timings.assign = timer.seconds();

  // Steps 2–3: layering + LP balancing (multi-stage, boundary-local, with
  // the workspace's persistent layering arrays).
  timer.reset();
  result.balance_result =
      balance_load(g_new, partitioning, state, options_.balance, &ws);
  result.balanced = result.balance_result.balanced;
  result.stages = static_cast<int>(result.balance_result.stages.size());
  result.timings.balance = timer.seconds();

  // Step 4: refinement (IGPR).
  if (options_.refine) {
    timer.reset();
    result.refine_stats = refine_partitioning(g_new, partitioning, state,
                                              options_.refinement, &ws);
    result.timings.refine = timer.seconds();
  }

  result.timings.total = total_timer.seconds();
  return result;
}

IgpResult IncrementalPartitioner::repartition_delta(
    const graph::Graph& g_old, const graph::Partitioning& old_partitioning,
    const graph::GraphDelta& delta, graph::Graph* result_graph) const {
  old_partitioning.validate(g_old);
  graph::DeltaResult applied = graph::apply_delta(g_old, delta);
  const graph::Partitioning carried =
      graph::carry_partitioning(old_partitioning, applied);
  IgpResult result =
      repartition(applied.graph, carried, applied.first_new_vertex);
  if (result_graph != nullptr) *result_graph = std::move(applied.graph);
  return result;
}

}  // namespace pigp::core
