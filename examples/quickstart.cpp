// Quickstart: the paper's four-step pipeline on a small mesh, narrated.
//
// Mirrors the worked example of Figures 2–9: build an irregular mesh,
// partition it with recursive spectral bisection, refine the mesh in a
// localized area (the incremental change), then walk the four IGP steps —
// initial assignment, layering, LP load balancing, LP refinement — printing
// what each step does.

#include <cstring>
#include <iostream>

#include "core/assign.hpp"
#include "core/layering.hpp"
#include "mesh/adaptive.hpp"
#include "pigp.hpp"
#include "spectral/partitioners.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  using namespace pigp;
  constexpr graph::PartId kParts = 4;

  // --smoke: a few-hundred-millisecond run for CI; same pipeline, smaller
  // mesh and refinement burst.
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const int mesh_size = smoke ? 120 : 400;
  const int refine_count = smoke ? 16 : 40;

  // --- the "initial graph" (Figure 2a) ---
  mesh::AdaptiveMesh amesh = mesh::AdaptiveMesh::random(mesh_size, /*seed=*/7);
  const graph::Graph before = amesh.to_graph();
  std::cout << "initial mesh: |V|=" << before.num_vertices()
            << " |E|=" << before.num_edges() << "\n";

  const graph::Partitioning initial =
      spectral::recursive_spectral_bisection(before, kParts);
  const auto m0 = graph::compute_metrics(before, initial);
  std::cout << "RSB partition: cut=" << m0.cut_total
            << " weights max/min=" << m0.max_weight << "/" << m0.min_weight
            << "\n\n";

  // --- the incremental change (Figure 2b: new vertices '*') ---
  mesh::RefineOptions refine;
  refine.center = {0.3, 0.6};
  refine.radius = 0.06;
  refine.count = refine_count;
  refine.seed = 11;
  (void)amesh.refine_near(refine);
  const graph::Graph after = amesh.to_graph();
  std::cout << "after localized refinement: |V|=" << after.num_vertices()
            << " (+" << after.num_vertices() - before.num_vertices()
            << " nodes near (0.3, 0.6))\n\n";

  // --- step 1: assign new vertices to the nearest old partition ---
  const graph::Partitioning assigned =
      core::extend_assignment(after, initial, before.num_vertices());
  {
    const auto m = graph::compute_metrics(after, assigned);
    TextTable table({"partition", "weight", "target"});
    const auto targets =
        graph::balance_targets(after.total_vertex_weight(), kParts);
    for (graph::PartId q = 0; q < kParts; ++q) {
      table.add_row(q, m.weight[static_cast<std::size_t>(q)],
                    targets[static_cast<std::size_t>(q)]);
    }
    std::cout << "step 1 (initial assignment) loads:\n";
    table.print(std::cout);
    std::cout << "(the hotspot partition is overloaded, as in Figure 2b)\n\n";
  }

  // --- step 2: layering (Figure 4) ---
  const core::LayeringResult layering =
      core::layer_partitions(after, assigned);
  {
    std::cout << "step 2 (layering) epsilon matrix — eps(i,j) = vertices of "
                 "partition i closest to partition j:\n";
    TextTable table({"i\\j", "0", "1", "2", "3"});
    for (std::size_t i = 0; i < 4; ++i) {
      table.add_row(i, layering.eps(i, 0), layering.eps(i, 1),
                    layering.eps(i, 2), layering.eps(i, 3));
    }
    table.print(std::cout);
    std::cout << '\n';
  }

  // --- steps 3 + 4 via the Session API (Figures 5-9) ---
  SessionConfig config;
  config.num_parts = kParts;
  config.backend = "igpr";  // the full pipeline with LP refinement
  Session session(config, before, initial);
  const SessionReport result =
      session.apply_extended(after, before.num_vertices());

  // summary() reads the session's incrementally maintained totals — O(P),
  // no allocation, no O(V+E) recount — which is the right call for
  // per-batch reporting in streaming loops.
  const graph::PartitionSummary m_final = session.summary();
  std::cout << "step 3 (balance LP): " << result.balance.stages.size()
            << " stage(s), "
            << (result.balance.balanced ? "balanced" : "NOT balanced") << "\n";
  if (!result.balance.stages.empty()) {
    const auto& stage = result.balance.stages.front();
    std::cout << "  stage 1: alpha=" << stage.alpha
              << " lp_vars=" << stage.lp_variables
              << " lp_rows=" << stage.lp_rows
              << " vertices moved=" << stage.vertices_moved << "\n";
  }
  std::cout << "step 4 (refinement LP): " << result.refine.rounds
            << " round(s), cut " << result.refine.cut_before << " -> "
            << result.refine.cut_after << "\n\n";

  // --- compare with spectral bisection from scratch ---
  const graph::Partitioning scratch =
      spectral::recursive_spectral_bisection(after, kParts);
  const auto m_scratch = graph::compute_metrics(after, scratch);
  TextTable table({"method", "cut", "max weight", "min weight"});
  table.add_row("IGPR (incremental)", m_final.cut_total, m_final.max_weight,
                m_final.min_weight);
  table.add_row("RSB from scratch", m_scratch.cut_total,
                m_scratch.max_weight, m_scratch.min_weight);
  table.print(std::cout);
  std::cout << "\nincremental repartitioning took "
            << result.timings.total * 1e3 << " ms (backend \""
            << session.backend_name() << "\")\n";
  return 0;
}
