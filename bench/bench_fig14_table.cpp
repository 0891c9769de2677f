// Reproduction of Figure 14 (Ou & Ranka, SC'94): the large irregular mesh
// (10166 nodes / ~30471 edges) with four independent localized refinements
// of growing size (+48, +139, +229, +672 nodes per the table's |V| values;
// the prose says "68" for the first — the table wins).  32 partitions.
//
// Each refinement is repartitioned three ways (SB from scratch, IGP, IGPR),
// starting from the same RSB partition of the base mesh.  The paper's
// observations to reproduce:
//  * IGP serial time is at least an order of magnitude below SB;
//  * larger increments need more balancing stages (1, 1, 2, 3);
//  * IGP's cut degrades with increment size (max cut inflates) and IGPR
//    recovers most of the gap to SB.
// Time-p is the paper's parallel time; ours is "-" until it is measured on
// the SPMD ranks.

#include <algorithm>
#include <cstring>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "mesh/paper_meshes.hpp"

namespace {

using namespace pigp;
using bench::kPaperPartitions;

struct PaperRow {
  const char* partitioner;
  double time_s;
  double time_p;
  int total, max, min;
};

struct PaperBlock {
  int nodes, edges, stages;
  std::vector<PaperRow> rows;
};

const std::vector<PaperBlock> kPaperFig14 = {
    {10214, 30615, 1, {{"SB", 800.05, -1, 2137, 178, 90},
                       {"IGP", 13.90, 1.01, 2139, 186, 84},
                       {"IGPR", 24.07, 1.83, 2040, 172, 82}}},
    {10305, 30888, 1, {{"SB", 814.36, -1, 2099, 166, 87},
                       {"IGP", 18.89, 1.08, 2295, 219, 93},
                       {"IGPR", 29.33, 2.01, 2162, 206, 85}}},
    {10395, 31158, 2, {{"SB", 853.35, -1, 2057, 169, 94},
                       {"IGP(2)", 35.98, 2.08, 2418, 256, 92},
                       {"IGPR", 43.86, 2.76, 2139, 190, 85}}},
    {10838, 32487, 3, {{"SB", 904.81, -1, 2158, 158, 94},
                       {"IGP(3)", 76.78, 3.66, 2572, 301, 102},
                       {"IGPR", 89.48, 4.39, 2270, 237, 96}}},
};

std::string fmt_time(double seconds) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4f", seconds);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  // --smoke: CI-sized run — the from-scratch rows use the cheap BFS
  // bisection instead of spectral, only the first (smallest) refinement is
  // repartitioned.  Rot-checks every code path of the full table in
  // seconds.
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const auto run_scratch = [&](const graph::Graph& g) {
    if (!smoke) return bench::run_sb(g, kPaperPartitions);
    runtime::WallTimer timer;
    bench::TimedPartition out;
    out.partitioning =
        spectral::recursive_graph_bisection(g, kPaperPartitions);
    out.seconds = timer.seconds();
    return out;
  };

  std::cout << "=== Figure 14: large mesh, independent refinements, P = "
            << kPaperPartitions << (smoke ? " (smoke: RGB scratch rows)" : "")
            << " ===\n";
  mesh::MeshFamily family = mesh::make_paper_mesh_b();
  if (smoke && family.refined.size() > 1) family.refined.resize(1);
  std::cout << "base mesh: |V|=" << family.base.num_vertices()
            << " |E|=" << family.base.num_edges()
            << " (paper: 10166/30471)\n\n";

  const bench::TimedPartition initial =
      run_scratch(family.base);
  const auto m0 = graph::compute_metrics(family.base, initial.partitioning);
  TextTable init_table(
      {"Initial graph", "Time-s", "Total", "Max", "Min"});
  init_table.add_row("SB (paper)", "-", 2118, 171, 82);
  init_table.add_row("SB (ours)", fmt_time(initial.seconds), m0.cut_total,
                     m0.cut_max, m0.cut_min);
  init_table.print(std::cout);
  std::cout << '\n';

  for (std::size_t i = 0; i < family.refined.size(); ++i) {
    const graph::Graph& g = family.refined[i];
    const graph::VertexId n_old = family.base.num_vertices();
    const PaperBlock& paper = kPaperFig14[i];

    const bench::TimedPartition sb = run_scratch(g);
    const bench::TimedPartition igp_s =
        bench::run_igp(g, initial.partitioning, n_old, false);
    const bench::TimedPartition igpr_s =
        bench::run_igp(g, initial.partitioning, n_old, true);

    const auto m_sb = graph::compute_metrics(g, sb.partitioning);
    const auto m_igp = graph::compute_metrics(g, igp_s.partitioning);
    const auto m_igpr = graph::compute_metrics(g, igpr_s.partitioning);

    TextTable table({"|V|=" + std::to_string(g.num_vertices()) + " (+" +
                         std::to_string(g.num_vertices() - n_old) + ")",
                     "Time-s", "Time-p", "Total", "Max", "Min"});
    for (const PaperRow& row : paper.rows) {
      table.add_row(std::string(row.partitioner) + " (paper)",
                    fmt_time(row.time_s),
                    row.time_p < 0 ? std::string("-") : fmt_time(row.time_p),
                    row.total, row.max, row.min);
    }
    table.add_separator();
    table.add_row("SB (ours)", fmt_time(sb.seconds), "-", m_sb.cut_total,
                  m_sb.cut_max, m_sb.cut_min);
    table.add_row("IGP(" + std::to_string(igp_s.stages) + ") (ours)",
                  fmt_time(igp_s.seconds), "-", m_igp.cut_total,
                  m_igp.cut_max, m_igp.cut_min);
    table.add_row("IGPR (ours)", fmt_time(igpr_s.seconds), "-",
                  m_igpr.cut_total, m_igpr.cut_max, m_igpr.cut_min);
    table.print(std::cout);

    std::cout << "shape check: SB/IGP time ratio = "
              << sb.seconds / std::max(igp_s.seconds, 1e-9)
              << "x (paper >= 10x); stages = " << igp_s.stages << " (paper "
              << paper.stages << "); IGP/SB cut = "
              << m_igp.cut_total / m_sb.cut_total
              << "; IGPR/SB cut = " << m_igpr.cut_total / m_sb.cut_total
              << "\n\n";
  }
  return 0;
}
