// Ablation study over the design choices DESIGN.md calls out:
//
//  A. Refinement rounds: the default 8 vs a single round vs none.
//  A2. LP refinement vs Kernighan-Lin as a post-pass on the IGP output.
//  B. Alpha staging: doubling search (reproduced behaviour) vs forcing
//     one-shot alpha = 1 with best-effort fallback only.
//  C. Flat vs multilevel incremental partitioning on mesh B (skipped by
//     --smoke).
//  D. Layering depth: each balance stage decided first on the layer-0
//     seed shell (max_layers = 4, deepened only when the seeds cannot
//     carry the excess) vs layering every stage to exhaustion
//     (max_layers = 0), on mesh A and — without --smoke — mesh B.
//
// The LP solver is not an ablation axis: the pipeline solves every LP
// with the network simplex, and bench_simplex times it against the dense
// and bounded-variable simplex on identical balance LPs.
//
// Run on the mesh-A sequence at 32 partitions; prints paper-style tables.

#include <algorithm>
#include <cstring>
#include <iostream>
#include <memory>
#include <utility>

#include "bench_common.hpp"
#include "core/assign.hpp"
#include "core/igp.hpp"
#include "core/multilevel.hpp"
#include "core/workspace.hpp"
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

/// Section D's totals over a set of repartitionings.
struct LayeringOutcome {
  double seconds = 0.0;
  int stages = 0;
  int seed_shell_stages = 0;  ///< decided at layer_depth 0
  double max_alpha = 0.0;
  long long balance_moved = 0;
  long long cut = 0;  ///< summed over the runs, after refinement
};

/// One in-place IGPR run of \p g_new from \p old_p (covering [0, n_old))
/// at the given layering depth cap, folded into \p out; returns the new
/// partitioning.
graph::Partitioning run_layering(const graph::Graph& g_new,
                                 const graph::Partitioning& old_p,
                                 graph::VertexId n_old, int max_layers,
                                 LayeringOutcome& out) {
  core::IgpOptions options;
  options.balance.max_layers = max_layers;
  graph::Partitioning p = old_p;
  graph::PartitionState state;
  core::Workspace ws;
  runtime::WallTimer timer;
  core::seed_extension_state(g_new, p, state);
  const core::IgpResult result =
      core::igp_repartition_in_place(g_new, p, n_old, options, state, ws);
  out.seconds += timer.seconds();
  for (const core::BalanceStage& stage : result.balance_result.stages) {
    ++out.stages;
    out.seed_shell_stages += stage.layer_depth == 0 ? 1 : 0;
    out.max_alpha = std::max(out.max_alpha, stage.alpha);
    out.balance_moved += static_cast<long long>(stage.vertices_moved);
  }
  out.cut += static_cast<long long>(graph::compute_metrics(g_new, p).cut_total);
  return p;
}

void add_layering_row(TextTable& table, const char* mesh, int max_layers,
                      const LayeringOutcome& out) {
  const char* layering = max_layers == 0 ? "exhaustive (max_layers = 0)"
                                         : "seed shell first (max_layers = 4)";
  table.add_row(mesh, layering, out.stages, out.seed_shell_stages,
                out.max_alpha, out.balance_moved, out.cut, out.seconds);
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
    };
    for (const Policy policy : {Policy{"default (8 rounds)", 8},
                                Policy{"single round", 1},
                                Policy{"no refinement (IGP)", 0}}) {
      SessionConfig config;
      config.num_parts = parts;
      config.backend = policy.max_rounds > 0 ? "igpr" : "igp";
      config.max_refine_rounds = policy.max_rounds;
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
    std::cout << '\n';
  }

  // ------------------------------------------------ D: layering depth
  {
    // The first decision of every stage on the seed shell against
    // exhaustive layering.  ε only grows with depth, so a stage's α on
    // the same input is the same; the movers may differ, and chained runs
    // then diverge, so stages, moves and the refined cut may too.
    TextTable table({"mesh", "layering", "stages", "on seed shell", "max alpha",
                     "balance moved", "cut after refine", "time (s)"});
    for (const int max_layers : {4, 0}) {
      LayeringOutcome out;
      graph::Partitioning current = initial;
      for (std::size_t step = 1; step < seq.graphs.size(); ++step) {
        current = run_layering(seq.graphs[step], current,
                               seq.graphs[step - 1].num_vertices(),
                               max_layers, out);
      }
      add_layering_row(table, "A (chained)", max_layers, out);
    }
    if (!smoke) {
      const mesh::MeshFamily family = mesh::make_paper_mesh_b();
      const graph::Partitioning base_part =
          spectral::recursive_spectral_bisection(family.base, parts);
      for (const int max_layers : {4, 0}) {
        LayeringOutcome out;
        for (const graph::Graph& g : family.refined) {
          (void)run_layering(g, base_part, family.base.num_vertices(),
                             max_layers, out);
        }
        add_layering_row(table, "B (each refinement)", max_layers, out);
      }
    }
    std::cout << "D. Layering depth of the first stage decision\n";
    table.print(std::cout);
    std::cout << '\n';
  }
  return 0;
}
