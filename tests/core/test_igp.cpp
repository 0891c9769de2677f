// Full IGP/IGPR pipeline: the end-to-end behaviour the paper's evaluation
// relies on — balance after incremental change, cut quality comparable to
// spectral-from-scratch, determinism, chained refinement sequences.

#include "core/igp.hpp"

#include <gtest/gtest.h>

#include "copying_repartition.hpp"
#include "graph/delta.hpp"
#include "graph/partition.hpp"
#include "mesh/paper_meshes.hpp"
#include "spectral/partitioners.hpp"

namespace pigp::core {
namespace {

using graph::compute_metrics;
using graph::Graph;
using graph::Partitioning;

TEST(Igp, RepartitionsAfterLocalizedRefinement) {
  const mesh::MeshSequence seq = mesh::make_small_mesh_sequence(600, {60}, 3);
  const Graph& before = seq.graphs[0];
  const Graph& after = seq.graphs[1];

  const Partitioning initial =
      spectral::recursive_spectral_bisection(before, 8);
  ASSERT_TRUE(graph::is_balanced(before, initial, 1.0));

  const IgpResult result =
      test::igp_repartition(after, initial, before.num_vertices());

  EXPECT_TRUE(result.balance_result.balanced);
  EXPECT_TRUE(graph::is_balanced(after, result.partitioning, 1.0));
  EXPECT_GE(result.balance_result.stages.size(), 1U);
}

TEST(Igp, QualityComparableToSpectralFromScratch) {
  const mesh::MeshSequence seq =
      mesh::make_small_mesh_sequence(800, {80}, 17);
  const Graph& before = seq.graphs[0];
  const Graph& after = seq.graphs[1];

  const Partitioning initial =
      spectral::recursive_spectral_bisection(before, 8);
  const IgpResult incremental =  // refinement on
      test::igp_repartition(after, initial, before.num_vertices());

  const Partitioning scratch =
      spectral::recursive_spectral_bisection(after, 8);

  const double cut_incremental =
      compute_metrics(after, incremental.partitioning).cut_total;
  const double cut_scratch = compute_metrics(after, scratch).cut_total;
  // Paper: "quality ... close to that achieved by applying recursive
  // spectral bisection from scratch" — allow a generous 35% band.
  EXPECT_LE(cut_incremental, 1.35 * cut_scratch);
}

TEST(Igp, RefinementImprovesOverPlainIgp) {
  const mesh::MeshSequence seq =
      mesh::make_small_mesh_sequence(700, {90}, 29);
  const Graph& before = seq.graphs[0];
  const Graph& after = seq.graphs[1];
  const Partitioning initial =
      spectral::recursive_spectral_bisection(before, 8);

  IgpOptions plain;
  plain.refine = false;
  IgpOptions refined;
  refined.refine = true;

  const IgpResult igp =
      test::igp_repartition(after, initial, before.num_vertices(), plain);
  const IgpResult igpr =
      test::igp_repartition(after, initial, before.num_vertices(), refined);

  const double cut_igp = compute_metrics(after, igp.partitioning).cut_total;
  const double cut_igpr =
      compute_metrics(after, igpr.partitioning).cut_total;
  EXPECT_LE(cut_igpr, cut_igp);  // IGPR never loses to IGP
  // Both remain balanced.
  EXPECT_TRUE(graph::is_balanced(after, igp.partitioning, 1.0));
  EXPECT_TRUE(graph::is_balanced(after, igpr.partitioning, 1.0));
}

TEST(Igp, ChainedIncrementsStayBalancedAndClose) {
  // Multiple refinement steps, each repartitioned from the previous IGP
  // output — the exact protocol of Figure 11.
  const mesh::MeshSequence seq =
      mesh::make_small_mesh_sequence(600, {30, 30, 40}, 41);
  Partitioning current =
      spectral::recursive_spectral_bisection(seq.graphs[0], 8);

  for (std::size_t step = 0; step + 1 < seq.graphs.size(); ++step) {
    const IgpResult result = test::igp_repartition(
        seq.graphs[step + 1], current, seq.graphs[step].num_vertices());
    EXPECT_TRUE(result.balance_result.balanced) << "step " << step;
    current = result.partitioning;

    const Partitioning scratch =
        spectral::recursive_spectral_bisection(seq.graphs[step + 1], 8);
    const double ratio =
        compute_metrics(seq.graphs[step + 1], current).cut_total /
        compute_metrics(seq.graphs[step + 1], scratch).cut_total;
    EXPECT_LE(ratio, 1.5) << "step " << step;
  }
}

TEST(Igp, DeterministicAcrossRuns) {
  const mesh::MeshSequence seq =
      mesh::make_small_mesh_sequence(500, {50}, 53);
  const Partitioning initial =
      spectral::recursive_spectral_bisection(seq.graphs[0], 8);
  const IgpResult a = test::igp_repartition(seq.graphs[1], initial,
                                            seq.graphs[0].num_vertices());
  const IgpResult b = test::igp_repartition(seq.graphs[1], initial,
                                            seq.graphs[0].num_vertices());
  EXPECT_EQ(a.partitioning.part, b.partitioning.part);
}

TEST(Igp, DeltaPathHandlesVertexDeletions) {
  // Build a small graph, delete a few vertices and add new ones through a
  // delta; the carried partitioning must survive the id remap.
  const mesh::MeshSequence seq = mesh::make_small_mesh_sequence(300, {}, 67);
  const Graph& base = seq.graphs[0];
  const Partitioning initial =
      spectral::recursive_spectral_bisection(base, 4);

  graph::GraphDelta delta;
  delta.removed_vertices = {5, 77, 130};
  graph::VertexAddition add;
  add.weight = 1.0;
  // Attach to surviving vertices.
  add.edges = {{10, 1.0}, {11, 1.0}};
  delta.added_vertices.push_back(add);

  const graph::DeltaResult applied = graph::apply_delta(base, delta);
  const IgpResult result = test::igp_repartition(
      applied.graph, graph::carry_partitioning(initial, applied),
      applied.first_new_vertex);
  EXPECT_EQ(applied.graph.num_vertices(), base.num_vertices() - 3 + 1);
  EXPECT_TRUE(graph::is_balanced(applied.graph, result.partitioning, 1.0));
}

TEST(Igp, TimingsArePopulated) {
  const mesh::MeshSequence seq =
      mesh::make_small_mesh_sequence(400, {40}, 71);
  const Partitioning initial =
      spectral::recursive_spectral_bisection(seq.graphs[0], 4);
  const IgpResult result = test::igp_repartition(
      seq.graphs[1], initial, seq.graphs[0].num_vertices());
  EXPECT_GT(result.timings.total, 0.0);
  EXPECT_GE(result.timings.total,
            result.timings.assign + result.timings.balance);
}

TEST(Igp, SevereLocalizedInsertionUsesMultipleStages) {
  // Mirror Figure 14(e): a huge localized insertion relative to partition
  // size forces alpha staging (IGP(k), k > 1).
  const mesh::MeshFamily family = mesh::make_small_mesh_family(
      800, {260}, 73);
  const Partitioning initial =
      spectral::recursive_spectral_bisection(family.base, 16);

  const graph::DeltaResult applied =
      graph::apply_delta(family.base, family.deltas[0]);
  const IgpResult result = test::igp_repartition(
      applied.graph, graph::carry_partitioning(initial, applied),
      applied.first_new_vertex);
  EXPECT_TRUE(result.balance_result.balanced);
  EXPECT_GE(result.balance_result.stages.size(), 2U)
      << "expected multi-stage balancing";
}

}  // namespace
}  // namespace pigp::core
