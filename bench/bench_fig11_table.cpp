// Reproduction of Figure 11 (Ou & Ranka, SC'94): incremental graph
// partitioning vs spectral bisection from scratch on the mesh-A refinement
// sequence (1071 -> 1096 -> 1121 -> 1152 -> 1192 nodes, 32 partitions).
//
// Protocol, exactly as in the paper:
//  * the initial 1071-node mesh is partitioned with recursive spectral
//    bisection (the "Initial Graph" block);
//  * each refined mesh is repartitioned three ways: SB from scratch,
//    IGP chained on the previous IGP result, IGPR chained on the previous
//    IGPR result;
//  * columns: serial seconds (Time-s), the paper's parallel seconds
//    (Time-p; ours is "-" until it is measured on the SPMD ranks), and the
//    cutset Total / Max / Min.
//
// Paper reference values are printed beside the measured ones.  Absolute
// times are incomparable (1994 CM-5 vs this machine); the shape to verify
// is Time(IGP) << Time(SB), cut(IGP) slightly above SB, cut(IGPR) ~ SB.

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
  double time_p;  // negative = not reported
  int total, max, min;
};

struct PaperBlock {
  int nodes, edges;
  std::vector<PaperRow> rows;
};

const std::vector<PaperBlock> kPaperFig11 = {
    {1096, 3260, {{"SB", 31.71, -1, 733, 56, 33},
                  {"IGP", 14.75, 0.68, 747, 55, 34},
                  {"IGPR", 16.87, 0.88, 730, 54, 34}}},
    {1121, 3335, {{"SB", 34.05, -1, 732, 56, 34},
                  {"IGP", 13.63, 0.73, 752, 54, 33},
                  {"IGPR", 16.42, 1.05, 727, 54, 33}}},
    {1152, 3428, {{"SB", 34.96, -1, 716, 57, 34},
                  {"IGP", 15.89, 0.92, 757, 56, 33},
                  {"IGPR", 18.32, 1.28, 741, 56, 33}}},
    {1192, 3548, {{"SB", 38.20, -1, 774, 63, 34},
                  {"IGP", 15.69, 0.94, 815, 63, 34},
                  {"IGPR", 18.43, 1.26, 779, 59, 34}}},
};

std::string fmt_time(double seconds) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4f", seconds);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  // --smoke: CI-sized run — first refinement step only.
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  std::cout << "=== Figure 11: mesh A refinement sequence, P = "
            << kPaperPartitions << (smoke ? " (smoke)" : "") << " ===\n";
  mesh::MeshSequence seq = mesh::make_paper_mesh_a();
  if (smoke && seq.graphs.size() > 2) seq.graphs.resize(2);
  std::cout << "meshes:";
  for (const auto& g : seq.graphs) {
    std::cout << " |V|=" << g.num_vertices() << "/|E|=" << g.num_edges();
  }
  std::cout << "\n\n";

  // Initial partition (paper: SB cut 734 / 56 / 35 at 1071 nodes).
  const bench::TimedPartition initial =
      bench::run_sb(seq.graphs[0], kPaperPartitions);
  const auto m0 = graph::compute_metrics(seq.graphs[0], initial.partitioning);
  TextTable init_table({"Initial graph", "|V|", "|E|", "Time-s", "Total",
                        "Max", "Min"});
  init_table.add_row("SB (paper)", 1071, 3185, "-", 734, 56, 35);
  init_table.add_row("SB (ours)", seq.graphs[0].num_vertices(),
                     seq.graphs[0].num_edges(), fmt_time(initial.seconds),
                     m0.cut_total, m0.cut_max, m0.cut_min);
  init_table.print(std::cout);
  std::cout << '\n';

  graph::Partitioning igp_chain = initial.partitioning;
  graph::Partitioning igpr_chain = initial.partitioning;

  for (std::size_t step = 1; step < seq.graphs.size(); ++step) {
    const graph::Graph& g = seq.graphs[step];
    const graph::VertexId n_old = seq.graphs[step - 1].num_vertices();
    const PaperBlock& paper = kPaperFig11[step - 1];

    const bench::TimedPartition sb = bench::run_sb(g, kPaperPartitions);
    const bench::TimedPartition igp_s =
        bench::run_igp(g, igp_chain, n_old, /*refine=*/false);
    const bench::TimedPartition igpr_s =
        bench::run_igp(g, igpr_chain, n_old, /*refine=*/true);

    const auto m_sb = graph::compute_metrics(g, sb.partitioning);
    const auto m_igp = graph::compute_metrics(g, igp_s.partitioning);
    const auto m_igpr = graph::compute_metrics(g, igpr_s.partitioning);

    TextTable table({"|V|=" + std::to_string(g.num_vertices()), "Time-s",
                     "Time-p", "Total", "Max", "Min"});
    for (const PaperRow& row : paper.rows) {
      table.add_row(std::string(row.partitioner) + " (paper)",
                    fmt_time(row.time_s),
                    row.time_p < 0 ? std::string("-") : fmt_time(row.time_p),
                    row.total, row.max, row.min);
    }
    table.add_separator();
    table.add_row("SB (ours)", fmt_time(sb.seconds), "-", m_sb.cut_total,
                  m_sb.cut_max, m_sb.cut_min);
    table.add_row("IGP (ours)", fmt_time(igp_s.seconds), "-",
                  m_igp.cut_total, m_igp.cut_max, m_igp.cut_min);
    table.add_row("IGPR (ours)", fmt_time(igpr_s.seconds), "-",
                  m_igpr.cut_total, m_igpr.cut_max, m_igpr.cut_min);
    table.print(std::cout);

    const double speed_ratio = sb.seconds / std::max(igp_s.seconds, 1e-9);
    std::cout << "shape check: SB/IGP serial time ratio = " << speed_ratio
              << "x (paper ~2.2x), IGP/SB cut = "
              << m_igp.cut_total / m_sb.cut_total
              << ", IGPR/SB cut = " << m_igpr.cut_total / m_sb.cut_total
              << "\n\n";

    igp_chain = igp_s.partitioning;
    igpr_chain = igpr_s.partitioning;
  }
  return 0;
}
