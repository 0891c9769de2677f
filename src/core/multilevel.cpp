#include "core/multilevel.hpp"

#include <algorithm>
#include <cmath>

#include "graph/builder.hpp"
#include "runtime/timer.hpp"
#include "support/check.hpp"

namespace pigp::core {

Coarsening coarsen_heavy_edge(const graph::Graph& g) {
  const graph::VertexId n = g.num_vertices();
  std::vector<graph::VertexId> match(static_cast<std::size_t>(n),
                                     graph::kInvalidVertex);
  // Greedy heavy-edge matching in vertex order.
  for (graph::VertexId v = 0; v < n; ++v) {
    if (match[static_cast<std::size_t>(v)] != graph::kInvalidVertex) continue;
    const auto nbrs = g.neighbors(v);
    const auto weights = g.incident_edge_weights(v);
    graph::VertexId best = graph::kInvalidVertex;
    double best_weight = -1.0;
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const graph::VertexId u = nbrs[i];
      if (match[static_cast<std::size_t>(u)] != graph::kInvalidVertex) {
        continue;
      }
      if (weights[i] > best_weight ||
          (weights[i] == best_weight && u < best)) {
        best = u;
        best_weight = weights[i];
      }
    }
    if (best != graph::kInvalidVertex) {
      match[static_cast<std::size_t>(v)] = best;
      match[static_cast<std::size_t>(best)] = v;
    } else {
      match[static_cast<std::size_t>(v)] = v;  // stays single
    }
  }

  Coarsening result;
  result.fine_to_coarse.assign(static_cast<std::size_t>(n),
                               graph::kInvalidVertex);
  graph::GraphBuilder builder;
  for (graph::VertexId v = 0; v < n; ++v) {
    if (result.fine_to_coarse[static_cast<std::size_t>(v)] !=
        graph::kInvalidVertex) {
      continue;
    }
    const graph::VertexId partner = match[static_cast<std::size_t>(v)];
    double weight = g.vertex_weight(v);
    if (partner != v) weight += g.vertex_weight(partner);
    const graph::VertexId cv = builder.add_vertex(weight);
    result.fine_to_coarse[static_cast<std::size_t>(v)] = cv;
    if (partner != v) {
      result.fine_to_coarse[static_cast<std::size_t>(partner)] = cv;
    }
  }
  // Aggregate edges (builder merges duplicates by summing weights).
  for (graph::VertexId v = 0; v < n; ++v) {
    const auto nbrs = g.neighbors(v);
    const auto weights = g.incident_edge_weights(v);
    const graph::VertexId cv =
        result.fine_to_coarse[static_cast<std::size_t>(v)];
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      if (nbrs[i] <= v) continue;  // each fine edge once
      const graph::VertexId cu =
          result.fine_to_coarse[static_cast<std::size_t>(nbrs[i])];
      if (cu != cv) builder.add_edge(cv, cu, weights[i]);
    }
  }
  result.coarse = builder.build();
  return result;
}

graph::Partitioning project_to_coarse(const Coarsening& c,
                                      const graph::Partitioning& fine) {
  graph::Partitioning coarse;
  coarse.num_parts = fine.num_parts;
  coarse.part.assign(static_cast<std::size_t>(c.coarse.num_vertices()),
                     graph::kUnassigned);
  // A coarse vertex merges at most two fine vertices; the first constituent
  // (smaller fine id) decides its partition — deterministic, and the
  // subsequent coarse balance/refinement passes correct any mismatch.
  for (std::size_t v = 0; v < c.fine_to_coarse.size(); ++v) {
    const auto cv = static_cast<std::size_t>(c.fine_to_coarse[v]);
    if (coarse.part[cv] == graph::kUnassigned) {
      coarse.part[cv] = fine.part[v];
    }
  }
  return coarse;
}

graph::Partitioning project_to_fine(const Coarsening& c,
                                    const graph::Partitioning& coarse,
                                    graph::VertexId fine_vertices) {
  PIGP_CHECK(static_cast<std::size_t>(fine_vertices) ==
                 c.fine_to_coarse.size(),
             "fine vertex count mismatch");
  graph::Partitioning fine;
  fine.num_parts = coarse.num_parts;
  fine.part.resize(static_cast<std::size_t>(fine_vertices));
  for (std::size_t v = 0; v < c.fine_to_coarse.size(); ++v) {
    fine.part[v] = coarse.part[static_cast<std::size_t>(
        c.fine_to_coarse[v])];
  }
  return fine;
}

IgpResult multilevel_repartition(const graph::Graph& g_new,
                                 const graph::Partitioning& old_partitioning,
                                 graph::VertexId n_old,
                                 const MultilevelOptions& options) {
  const runtime::WallTimer total_timer;
  IgpResult result;

  // Step 1 on the fine graph, as in the flat algorithm.
  runtime::WallTimer timer;
  graph::Partitioning current =
      extend_assignment(g_new, old_partitioning, n_old);
  result.timings.assign = timer.seconds();

  // Build the coarsening hierarchy of the new graph.
  timer.reset();
  std::vector<Coarsening> hierarchy;
  const graph::Graph* level_graph = &g_new;
  for (int level = 0; level < options.max_levels; ++level) {
    if (level_graph->num_vertices() <= options.coarsest_size) break;
    Coarsening c = coarsen_heavy_edge(*level_graph);
    // Coarsening stalls on star-like graphs; stop if progress is small.
    if (c.coarse.num_vertices() >
        level_graph->num_vertices() * 9 / 10) {
      break;
    }
    hierarchy.push_back(std::move(c));
    level_graph = &hierarchy.back().coarse;
  }

  // Project the assignment down the hierarchy.
  std::vector<graph::Partitioning> projected;
  projected.push_back(current);
  {
    const graph::Graph* g = &g_new;
    for (const Coarsening& c : hierarchy) {
      projected.push_back(project_to_coarse(c, projected.back()));
      g = &c.coarse;
      (void)g;
    }
  }

  // Balance at the coarsest level with a tolerance matching the coarse
  // vertex granularity.
  BalanceOptions coarse_balance = options.igp.balance;
  {
    const graph::Graph& coarsest =
        hierarchy.empty() ? g_new : hierarchy.back().coarse;
    double max_vw = 1.0;
    for (graph::VertexId v = 0; v < coarsest.num_vertices(); ++v) {
      max_vw = std::max(max_vw, coarsest.vertex_weight(v));
    }
    coarse_balance.tolerance =
        std::max(options.igp.balance.tolerance, max_vw);
    graph::Partitioning& coarse_part = projected.back();
    const BalanceResult coarse_result =
        balance_load(coarsest, coarse_part, coarse_balance);
    result.balance_result.stages = coarse_result.stages;
  }

  // Uncoarsen: project up, refine at every level, then exact fine balance.
  for (std::size_t level = hierarchy.size(); level-- > 0;) {
    const graph::Graph& fine_graph =
        level == 0 ? g_new : hierarchy[level - 1].coarse;
    projected[level] = project_to_fine(
        hierarchy[level], projected[level + 1],
        fine_graph.num_vertices());
    if (options.igp.refine) {
      RefineOptions per_level = options.igp.refinement;
      per_level.max_rounds = std::max(1, per_level.max_rounds / 2);
      (void)refine_partitioning(fine_graph, projected[level], per_level);
    }
  }
  current = std::move(projected.front());

  // Final exact balance + refinement on the fine graph.
  const BalanceResult fine_result =
      balance_load(g_new, current, options.igp.balance);
  for (const BalanceStage& s : fine_result.stages) {
    result.balance_result.stages.push_back(s);
  }
  result.balance_result.balanced = fine_result.balanced;
  result.balance_result.final_max_deviation =
      fine_result.final_max_deviation;
  result.timings.balance = timer.seconds();

  if (options.igp.refine) {
    timer.reset();
    result.refine_stats =
        refine_partitioning(g_new, current, options.igp.refinement);
    result.timings.refine = timer.seconds();
  }

  result.partitioning = std::move(current);
  result.timings.total = total_timer.seconds();
  return result;
}

}  // namespace pigp::core
