// Edge cases and failure injection for the full pipeline: weighted graphs,
// graphs that cannot be balanced, degenerate deltas, partition file I/O.

#include <gtest/gtest.h>

#include <sstream>

#include "copying_repartition.hpp"
#include "core/igp.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/partition.hpp"
#include "mesh/paper_meshes.hpp"
#include "spectral/partitioners.hpp"

namespace pigp::core {
namespace {

using graph::Graph;
using graph::Partitioning;
using graph::VertexId;

TEST(IgpEdgeCases, EmptyDeltaIsCheapAndStable) {
  const mesh::MeshSequence seq = mesh::make_small_mesh_sequence(300, {}, 3);
  const Partitioning initial =
      spectral::recursive_spectral_bisection(seq.graphs[0], 4);
  const IgpResult result = test::igp_repartition(
      seq.graphs[0], initial, seq.graphs[0].num_vertices());
  EXPECT_TRUE(result.balance_result.balanced);
  // Already balanced: no LP stage.
  EXPECT_EQ(result.balance_result.stages.size(), 0U);
}

TEST(IgpEdgeCases, WeightedVerticesBalanceByWeight) {
  // Mesh-like graph with vertex weights in {1, 2}: balance must hold in
  // *weight*, not in counts.
  const Graph base = graph::random_geometric_graph(500, 0.07, 7);
  graph::GraphBuilder b;
  for (VertexId v = 0; v < base.num_vertices(); ++v) {
    b.add_vertex(v % 3 == 0 ? 2.0 : 1.0);
  }
  for (VertexId v = 0; v < base.num_vertices(); ++v) {
    for (VertexId u : base.neighbors(v)) {
      if (u > v) b.add_edge(v, u);
    }
  }
  const Graph g = b.build();
  const Partitioning initial = spectral::recursive_spectral_bisection(g, 4);

  // Perturb: move a block of vertices to partition 0 to unbalance.
  Partitioning skewed = initial;
  int moved = 0;
  for (VertexId v = 0; v < g.num_vertices() && moved < 60; ++v) {
    if (skewed.part[static_cast<std::size_t>(v)] == 1) {
      skewed.part[static_cast<std::size_t>(v)] = 0;
      ++moved;
    }
  }

  BalanceOptions opt;
  opt.max_stages = 30;
  Partitioning p = skewed;
  const BalanceResult r = balance_load(g, p, opt);
  EXPECT_TRUE(r.balanced);
  const auto m = graph::compute_metrics(g, p);
  const auto targets =
      graph::balance_targets(g.total_vertex_weight(), 4);
  for (int q = 0; q < 4; ++q) {
    EXPECT_NEAR(m.weight[static_cast<std::size_t>(q)],
                targets[static_cast<std::size_t>(q)], 2.0);
  }
}

TEST(IgpEdgeCases, UnbalanceableGraphReportsHonestly) {
  // A star graph: the center is in partition 0; partition 1 holds a single
  // leaf.  Balance needs leaves to move, which is possible — but with 2
  // vertices and 2 partitions of a disconnected pair nothing can move.
  graph::GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(2, 3);
  const Graph g = b.build();
  Partitioning p;
  p.num_parts = 2;
  p.part = {0, 0, 0, 0};  // everything in partition 0; partition 1 empty
  // No vertex has a cross edge => layering yields no capacity at all.
  BalanceOptions opt;
  const BalanceResult r = balance_load(g, p, opt);
  EXPECT_FALSE(r.balanced);
  EXPECT_GT(r.final_max_deviation, 0.0);
}

TEST(IgpEdgeCases, TwoPartitionsMinimalGraph) {
  const Graph g = graph::path_graph(4);
  Partitioning old_p;
  old_p.num_parts = 2;
  old_p.part = {0, 0, 1};
  // One new vertex appended at the end of the path.
  graph::GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 3);
  const IgpResult result = test::igp_repartition(g, old_p, 3);
  EXPECT_TRUE(result.balance_result.balanced);
  EXPECT_TRUE(graph::is_balanced(g, result.partitioning, 0.5));
}

TEST(IgpEdgeCases, ManyPartitionsFewVertices) {
  const Graph g = graph::grid_graph(4, 4);
  const Partitioning initial =
      spectral::recursive_spectral_bisection(g, 8);
  const IgpResult result =
      test::igp_repartition(g, initial, g.num_vertices());
  EXPECT_TRUE(result.balance_result.balanced);
}

TEST(PartitionIo, RoundTrip) {
  Partitioning p;
  p.num_parts = 5;
  p.part = {0, 3, 4, 1, 2, 0, 4};
  std::stringstream ss;
  graph::write_partition(p, ss);
  const Partitioning q = graph::read_partition(ss);
  EXPECT_EQ(q.part, p.part);
  EXPECT_EQ(q.num_parts, 5);
}

TEST(PartitionIo, FileRoundTrip) {
  const Graph g = graph::grid_graph(6, 6);
  const Partitioning p = spectral::recursive_graph_bisection(g, 4);
  const std::string path = ::testing::TempDir() + "/pigp_part_test.part";
  graph::save_partition_file(p, path);
  const Partitioning q = graph::load_partition_file(path);
  EXPECT_EQ(q.part, p.part);
}

TEST(PartitionIo, EmptyFileThrows) {
  std::stringstream ss("");
  EXPECT_THROW((void)graph::read_partition(ss), CheckError);
}

TEST(PartitionIo, NegativeIdThrows) {
  std::stringstream ss("0\n-1\n2\n");
  EXPECT_THROW((void)graph::read_partition(ss), CheckError);
}

class IgpSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IgpSeedSweep, PipelineInvariantsHoldAcrossWorkloads) {
  const std::uint64_t seed = GetParam();
  const mesh::MeshSequence seq = mesh::make_small_mesh_sequence(
      400 + static_cast<int>(seed % 5) * 100,
      {30 + static_cast<int>(seed % 3) * 20}, seed * 13 + 1);
  const Partitioning initial = spectral::recursive_spectral_bisection(
      seq.graphs[0], 4 + static_cast<graph::PartId>(seed % 3) * 4);

  const IgpResult result = test::igp_repartition(
      seq.graphs[1], initial, seq.graphs[0].num_vertices());

  // Invariants: every vertex assigned, balance within one unit, refinement
  // never worsened the post-balance cut.
  result.partitioning.validate(seq.graphs[1]);
  EXPECT_TRUE(result.balance_result.balanced) << "seed " << seed;
  EXPECT_TRUE(graph::is_balanced(seq.graphs[1], result.partitioning, 1.0))
      << "seed " << seed;
  EXPECT_LE(result.refine_stats.cut_after,
            result.refine_stats.cut_before + 1e-9)
      << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, IgpSeedSweep,
                         ::testing::Range<std::uint64_t>(0, 10));

}  // namespace
}  // namespace pigp::core
