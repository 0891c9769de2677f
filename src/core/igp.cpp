#include "core/igp.hpp"

#include "core/workspace.hpp"
#include "runtime/timer.hpp"

namespace pigp::core {

IgpResult igp_repartition_in_place(const graph::Graph& g_new,
                                   graph::Partitioning& partitioning,
                                   graph::VertexId n_old,
                                   const IgpOptions& options,
                                   graph::PartitionState& state,
                                   Workspace& ws) {
  const runtime::WallTimer total_timer;
  IgpResult result;

  // Step 1: seeded assignment of the appended vertices, folded straight
  // into the maintained state — O(Σ deg(new) + shell), and allocation-free
  // once the workspace is warm.
  runtime::WallTimer timer;
  extend_assignment_state(g_new, partitioning, n_old, state, ws);
  result.timings.assign = timer.seconds();

  // Steps 2–3: layering + LP balancing (multi-stage, boundary-local, with
  // the workspace's persistent layering arrays).
  timer.reset();
  result.balance_result =
      balance_load(g_new, partitioning, state, options.balance, &ws);
  result.timings.balance = timer.seconds();

  // Step 4: refinement (IGPR).
  if (options.refine) {
    timer.reset();
    result.refine_stats = refine_partitioning(g_new, partitioning, state,
                                              options.refinement, &ws);
    result.timings.refine = timer.seconds();
  }

  result.timings.total = total_timer.seconds();
  return result;
}

}  // namespace pigp::core
