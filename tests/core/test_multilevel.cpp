// Multilevel incremental partitioning (the paper's §3 future-work
// extension): coarsening invariants, projection round-trips, and V-cycle
// quality/balance.

#include "core/multilevel.hpp"

#include <gtest/gtest.h>

#include "copying_repartition.hpp"
#include "graph/generators.hpp"
#include "graph/partition.hpp"
#include "mesh/paper_meshes.hpp"
#include "spectral/partitioners.hpp"

namespace pigp::core {
namespace {

using graph::Graph;
using graph::Partitioning;
using graph::VertexId;

TEST(Coarsening, ConservesTotalVertexWeight) {
  const Graph g = graph::random_geometric_graph(600, 0.06, 5);
  const Coarsening c = coarsen_heavy_edge(g);
  EXPECT_DOUBLE_EQ(c.coarse.total_vertex_weight(), g.total_vertex_weight());
  c.coarse.validate();
}

TEST(Coarsening, RoughlyHalvesTheGraph) {
  const Graph g = graph::grid_graph(30, 30);
  const Coarsening c = coarsen_heavy_edge(g);
  // Grids match almost perfectly: close to n/2 coarse vertices.
  EXPECT_LE(c.coarse.num_vertices(), g.num_vertices() * 6 / 10);
  EXPECT_GE(c.coarse.num_vertices(), g.num_vertices() * 4 / 10);
}

TEST(Coarsening, MapIsSurjectiveAndInRange) {
  const Graph g = graph::random_connected_graph(300, 1.0, 9);
  const Coarsening c = coarsen_heavy_edge(g);
  std::vector<bool> hit(static_cast<std::size_t>(c.coarse.num_vertices()),
                        false);
  for (const VertexId cv : c.fine_to_coarse) {
    ASSERT_GE(cv, 0);
    ASSERT_LT(cv, c.coarse.num_vertices());
    hit[static_cast<std::size_t>(cv)] = true;
  }
  for (const bool h : hit) EXPECT_TRUE(h);
}

TEST(Coarsening, EdgeWeightsAggregate) {
  // Path 0-1-2-3: matching pairs (0,1) and (2,3); the coarse graph is a
  // single edge carrying the weight of edge 1-2.
  const Graph g = graph::path_graph(4);
  const Coarsening c = coarsen_heavy_edge(g);
  EXPECT_EQ(c.coarse.num_vertices(), 2);
  EXPECT_EQ(c.coarse.num_edges(), 1);
  EXPECT_DOUBLE_EQ(c.coarse.edge_weight(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(c.coarse.vertex_weight(0), 2.0);
}

TEST(Coarsening, CutIsPreservedUnderProjection) {
  // The cut of a projected coarse partitioning equals the fine cut of its
  // refinement-free expansion.
  const Graph g = graph::grid_graph(12, 12);
  const Coarsening c = coarsen_heavy_edge(g);
  Partitioning coarse;
  coarse.num_parts = 2;
  coarse.part.resize(static_cast<std::size_t>(c.coarse.num_vertices()));
  for (VertexId v = 0; v < c.coarse.num_vertices(); ++v) {
    coarse.part[static_cast<std::size_t>(v)] = v % 2;
  }
  const Partitioning fine =
      project_to_fine(c, coarse, g.num_vertices());
  EXPECT_DOUBLE_EQ(graph::compute_metrics(g, fine).cut_total,
                   graph::compute_metrics(c.coarse, coarse).cut_total);
}

TEST(ProjectToCoarse, RoundTripsWhenPairsAgree) {
  const Graph g = graph::grid_graph(8, 8);
  const Coarsening c = coarsen_heavy_edge(g);
  Partitioning coarse;
  coarse.num_parts = 4;
  coarse.part.resize(static_cast<std::size_t>(c.coarse.num_vertices()));
  for (VertexId v = 0; v < c.coarse.num_vertices(); ++v) {
    coarse.part[static_cast<std::size_t>(v)] = v % 4;
  }
  const Partitioning fine = project_to_fine(c, coarse, g.num_vertices());
  const Partitioning back = project_to_coarse(c, fine);
  EXPECT_EQ(back.part, coarse.part);
}

TEST(MultilevelIgp, BalancesAndMatchesFlatQuality) {
  const mesh::MeshSequence seq =
      mesh::make_small_mesh_sequence(2500, {200}, 21);
  const Partitioning initial =
      spectral::recursive_spectral_bisection(seq.graphs[0], 16);

  MultilevelOptions ml;
  ml.coarsest_size = 500;
  const IgpResult multilevel = multilevel_repartition(
      seq.graphs[1], initial, seq.graphs[0].num_vertices(), ml);
  EXPECT_TRUE(multilevel.balance_result.balanced);
  EXPECT_TRUE(graph::is_balanced(seq.graphs[1], multilevel.partitioning,
                                 1.0));

  const IgpResult flat_result = test::igp_repartition(
      seq.graphs[1], initial, seq.graphs[0].num_vertices());
  const double ml_cut =
      graph::compute_metrics(seq.graphs[1], multilevel.partitioning)
          .cut_total;
  const double flat_cut =
      graph::compute_metrics(seq.graphs[1], flat_result.partitioning)
          .cut_total;
  // The multilevel variant must stay in the same quality regime.
  EXPECT_LE(ml_cut, 1.3 * flat_cut);
}

TEST(MultilevelIgp, SmallGraphSkipsCoarsening) {
  const mesh::MeshSequence seq =
      mesh::make_small_mesh_sequence(300, {30}, 33);
  const Partitioning initial =
      spectral::recursive_spectral_bisection(seq.graphs[0], 4);
  MultilevelOptions ml;
  ml.coarsest_size = 2000;  // graph is already below the threshold
  const IgpResult result = multilevel_repartition(
      seq.graphs[1], initial, seq.graphs[0].num_vertices(), ml);
  EXPECT_TRUE(result.balance_result.balanced);
}

TEST(MultilevelIgp, Deterministic) {
  const mesh::MeshSequence seq =
      mesh::make_small_mesh_sequence(1200, {100}, 41);
  const Partitioning initial =
      spectral::recursive_spectral_bisection(seq.graphs[0], 8);
  MultilevelOptions ml;
  ml.coarsest_size = 300;
  const IgpResult a = multilevel_repartition(
      seq.graphs[1], initial, seq.graphs[0].num_vertices(), ml);
  const IgpResult b = multilevel_repartition(
      seq.graphs[1], initial, seq.graphs[0].num_vertices(), ml);
  EXPECT_EQ(a.partitioning.part, b.partitioning.part);
}

}  // namespace
}  // namespace pigp::core
