// Ablation study over the design choices DESIGN.md calls out:
//
//  A. Refinement policy: paper default (non-strict rounds then strict)
//     vs strict-from-the-start vs a single round.
//  A2. LP refinement vs Kernighan-Lin as a post-pass on the IGP output.
//  B. Alpha staging: doubling search (reproduced behaviour) vs forcing
//     one-shot alpha = 1 with best-effort fallback only.
//  C. Flat vs multilevel incremental partitioning on mesh B (skipped by
//     --smoke).
//
// The LP solver is not an ablation axis: the pipeline solves every LP
// with the network simplex, and bench_simplex times it against the dense
// and bounded-variable simplex on identical balance LPs.
//
// Run on the mesh-A sequence at 32 partitions; prints paper-style tables.

#include <cstring>
#include <iostream>
#include <memory>
#include <utility>

#include "bench_common.hpp"
#include "core/multilevel.hpp"
#include "spectral/kernighan_lin.hpp"
#include "mesh/paper_meshes.hpp"

namespace {

using namespace pigp;
using bench::kPaperPartitions;

struct AblationOutcome {
  double seconds = 0.0;
  double cut = 0.0;
  double stages = 0.0;
};

AblationOutcome run_variant(const mesh::MeshSequence& seq,
                            const graph::Partitioning& initial,
                            const SessionConfig& config) {
  AblationOutcome out;
  graph::Partitioning current = initial;
  const std::unique_ptr<Backend> backend = bench::make_backend(config);
  for (std::size_t step = 1; step < seq.graphs.size(); ++step) {
    runtime::WallTimer timer;
    BackendResult result = backend->repartition(
        seq.graphs[step], current, seq.graphs[step - 1].num_vertices());
    out.seconds += timer.seconds();
    out.stages += static_cast<double>(result.balance_result.stages.size());
    current = std::move(result.partitioning);
  }
  out.cut = graph::compute_metrics(seq.graphs.back(), current).cut_total;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  // --smoke: seconds-scale CI run — fewer partitions, one increment, and
  // the expensive mesh-B section C skipped.
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const graph::PartId parts = smoke ? 8 : kPaperPartitions;

  mesh::MeshSequence seq = mesh::make_paper_mesh_a();
  if (smoke && seq.graphs.size() > 2) {
    seq.graphs.resize(2);  // one increment is enough to rot-check the paths
  }
  std::cout << "=== Ablations on mesh A, P = " << parts << " ("
            << seq.graphs.size() - 1 << " chained increment(s)"
            << (smoke ? ", smoke" : "") << ") ===\n\n";
  const graph::Partitioning initial =
      spectral::recursive_spectral_bisection(seq.graphs[0], parts);

  // ------------------------------------------------ A: refinement policy
  {
    TextTable table({"refinement policy", "time (s)", "final cut"});
    struct Policy {
      const char* name;
      int max_rounds;
      int strict_after;
    };
    for (const Policy policy :
         {Policy{"paper default (strict after 2)", 8, 2},
          Policy{"strict from round 0", 8, 0},
          Policy{"single round", 1, 2},
          Policy{"no refinement (IGP)", 0, 0}}) {
      SessionConfig config;
      config.num_parts = parts;
      config.backend = policy.max_rounds > 0 ? "igpr" : "igp";
      config.max_refine_rounds = policy.max_rounds;
      config.refine_strict_after_round = policy.strict_after;
      const AblationOutcome out = run_variant(seq, initial, config);
      table.add_row(policy.name, out.seconds, out.cut);
    }
    std::cout << "A. Refinement policy\n";
    table.print(std::cout);
    std::cout << '\n';
  }

  // ------------------------------------------------ A2: LP vs KL refinement
  {
    // The paper's LP refinement against the classic mincut local search its
    // introduction cites.  Run both as a post-pass on the plain IGP output
    // of the final mesh step.
    SessionConfig plain;
    plain.num_parts = parts;
    plain.backend = "igp";
    graph::Partitioning current = initial;
    const std::unique_ptr<Backend> igp = bench::make_backend(plain);
    for (std::size_t step = 1; step < seq.graphs.size(); ++step) {
      current = igp->repartition(seq.graphs[step], current,
                                 seq.graphs[step - 1].num_vertices())
                    .partitioning;
    }
    const graph::Graph& g = seq.graphs.back();
    const double base_cut = graph::compute_metrics(g, current).cut_total;

    TextTable table({"post-pass on IGP output", "time (s)", "final cut"});
    table.add_row("none", 0.0, base_cut);
    {
      graph::Partitioning p = current;
      runtime::WallTimer timer;
      (void)core::refine_partitioning(g, p);
      table.add_row("LP refinement (paper step 4)", timer.seconds(),
                    graph::compute_metrics(g, p).cut_total);
    }
    {
      graph::Partitioning p = current;
      runtime::WallTimer timer;
      (void)spectral::kernighan_lin_refine(g, p);
      table.add_row("Kernighan-Lin pairwise", timer.seconds(),
                    graph::compute_metrics(g, p).cut_total);
    }
    {
      graph::Partitioning p = current;
      runtime::WallTimer timer;
      (void)core::refine_partitioning(g, p);
      (void)spectral::kernighan_lin_refine(g, p);
      table.add_row("LP then KL", timer.seconds(),
                    graph::compute_metrics(g, p).cut_total);
    }
    std::cout << "A2. LP refinement vs Kernighan-Lin\n";
    table.print(std::cout);
    std::cout << '\n';
  }

  // ------------------------------------------------ B: alpha staging
  {
    TextTable table(
        {"staging policy", "time (s)", "final cut", "total stages"});
    for (const double alpha_max : {64.0, 1.0}) {
      SessionConfig config;
      config.num_parts = parts;
      config.alpha_max = alpha_max;
      const AblationOutcome out = run_variant(seq, initial, config);
      table.add_row(alpha_max > 1.0 ? "alpha doubling (paper)"
                                    : "alpha = 1 + best-effort only",
                    out.seconds, out.cut, out.stages);
    }
    std::cout << "B. Alpha staging policy\n";
    table.print(std::cout);
    std::cout << '\n';
  }

  // ------------------------------------------------ C: flat vs multilevel
  if (!smoke) {
    // The paper's §3 future-work extension: apply incremental partitioning
    // recursively through a coarsening hierarchy.  Compare on the large
    // mesh-B workload where coarsening has something to save.
    const mesh::MeshFamily family = mesh::make_paper_mesh_b();
    const graph::Partitioning base_part =
        spectral::recursive_spectral_bisection(family.base,
                                               kPaperPartitions);
    const graph::Graph& g = family.refined.back();
    const graph::VertexId n_old = family.base.num_vertices();

    TextTable table({"driver (mesh B +672)", "time (s)", "cut", "balanced"});
    {
      SessionConfig config;
      config.num_parts = kPaperPartitions;
      const std::unique_ptr<Backend> igpr = bench::make_backend(config);
      runtime::WallTimer timer;
      const BackendResult flat = igpr->repartition(g, base_part, n_old);
      table.add_row("flat IGPR (paper)", timer.seconds(),
                    graph::compute_metrics(g, flat.partitioning).cut_total,
                    flat.balance_result.balanced ? "yes" : "no");
    }
    {
      core::MultilevelOptions ml;
      ml.coarsest_size = 1500;
      runtime::WallTimer timer;
      const core::IgpResult multi =
          core::multilevel_repartition(g, base_part, n_old, ml);
      table.add_row("multilevel IGPR (future work)", timer.seconds(),
                    graph::compute_metrics(g, multi.partitioning).cut_total,
                    multi.balance_result.balanced ? "yes" : "no");
    }
    std::cout << "C. Flat vs multilevel incremental partitioning\n";
    table.print(std::cout);
  }
  return 0;
}
