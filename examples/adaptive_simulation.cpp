// Adaptive-computation simulation: the end-to-end scenario that motivates
// the paper (§1) — an adaptive mesh whose computational structure changes
// incrementally between solver phases, with repartitioning after every
// phase.  A moving refinement front (think a shock sweeping across the
// domain) adds nodes epoch after epoch; the stream is absorbed by one
// stateful pigp::Session and compared against what a from-scratch RSB
// would cost each epoch.
//
// The table shows the paper's core economics: IGPR's per-epoch cost is a
// tiny fraction of RSB's while the cut stays comparable, so incremental
// repartitioning amortizes even when the mesh changes every few solver
// iterations.

#include <cmath>
#include <iostream>

#include "mesh/adaptive.hpp"
#include "pigp.hpp"
#include "runtime/timer.hpp"
#include "spectral/partitioners.hpp"
#include "support/table.hpp"

int main() {
  using namespace pigp;
  constexpr graph::PartId kParts = 16;
  constexpr int kEpochs = 10;

  mesh::AdaptiveMesh amesh = mesh::AdaptiveMesh::random(3000, /*seed=*/101);
  const graph::Graph initial_graph = amesh.to_graph();

  // One session owns the evolving graph + partitioning for the whole run.
  SessionConfig config;
  config.num_parts = kParts;
  config.backend = "igpr";
  config.scratch_method = "rsb";

  runtime::WallTimer timer;
  Session session(config, initial_graph);  // initial RSB partition
  const double initial_rsb_seconds = timer.seconds();
  std::cout << "initial mesh |V|=" << session.graph().num_vertices()
            << ", RSB took " << initial_rsb_seconds << " s\n\n";

  TextTable table({"epoch", "|V|", "new", "stages", "IGPR (s)", "RSB (s)",
                   "cut IGPR", "cut RSB", "imbalance"});

  double total_igpr = 0.0;
  double total_rsb = 0.0;
  for (int epoch = 0; epoch < kEpochs; ++epoch) {
    // The refinement front moves along a diagonal arc across the domain.
    const double t = static_cast<double>(epoch) / (kEpochs - 1);
    mesh::RefineOptions refine;
    refine.center = {0.2 + 0.6 * t, 0.3 + 0.4 * std::sin(3.0 * t)};
    refine.radius = 0.05;
    refine.count = 120;
    refine.seed = static_cast<std::uint64_t>(epoch) * 31 + 5;
    (void)amesh.refine_near(refine);

    const graph::VertexId n_old = session.graph().num_vertices();
    const graph::Graph next = amesh.to_graph();

    const SessionReport report = session.apply_extended(next, n_old);

    timer.reset();
    const graph::Partitioning scratch =
        spectral::recursive_spectral_bisection(session.graph(), kParts);
    const double rsb_seconds = timer.seconds();

    const auto m_rsb = graph::compute_metrics(session.graph(), scratch);
    table.add_row(epoch, session.graph().num_vertices(),
                  session.graph().num_vertices() - n_old,
                  report.balance.stages.size(), report.seconds, rsb_seconds,
                  report.metrics.cut_total, m_rsb.cut_total,
                  report.metrics.imbalance);

    total_igpr += report.seconds;
    total_rsb += rsb_seconds;
  }
  table.print(std::cout);

  std::cout << "\ntotals over " << kEpochs
            << " epochs: IGPR = " << total_igpr << " s, RSB-from-scratch = "
            << total_rsb << " s (" << total_rsb / total_igpr
            << "x more expensive)\n";
  const SessionCounters& counters = session.counters();
  std::cout << "session counters: " << counters.extensions_applied
            << " updates, " << counters.vertices_added << " vertices added, "
            << counters.repartitions << " repartitions, "
            << counters.balance_stages << " balance stages, "
            << counters.lp_iterations << " LP pivots\n";
  std::cout << "final mesh: |V|=" << session.graph().num_vertices() << "\n";
  return 0;
}
