// SPMD (message-passing) driver vs shared-memory driver equivalence.

#include "core/spmd_igp.hpp"

#include <gtest/gtest.h>

#include "copying_repartition.hpp"
#include "graph/partition.hpp"
#include "mesh/paper_meshes.hpp"
#include "spectral/partitioners.hpp"

namespace pigp::core {
namespace {

using graph::Graph;
using graph::Partitioning;

struct SpmdCase {
  int ranks;
  int parts;
};

class SpmdEquivalence : public ::testing::TestWithParam<SpmdCase> {};

TEST_P(SpmdEquivalence, MatchesSharedMemoryDriver) {
  const SpmdCase param = GetParam();
  const mesh::MeshSequence seq = mesh::make_small_mesh_sequence(
      600, {80}, 91 + static_cast<std::uint64_t>(param.ranks));
  const Partitioning initial = spectral::recursive_spectral_bisection(
      seq.graphs[0], param.parts);

  const IgpResult expected = test::igp_repartition(
      seq.graphs[1], initial, seq.graphs[0].num_vertices());

  MachineExecutor executor(param.ranks);
  const IgpResult actual = test::spmd_repartition(
      executor, seq.graphs[1], initial, seq.graphs[0].num_vertices());

  EXPECT_EQ(expected.partitioning.part, actual.partitioning.part);
  EXPECT_EQ(expected.balance_result.balanced, actual.balance_result.balanced);
  EXPECT_EQ(expected.balance_result.stages.size(),
            actual.balance_result.stages.size());
}

INSTANTIATE_TEST_SUITE_P(RankCounts, SpmdEquivalence,
                         ::testing::Values(SpmdCase{1, 8}, SpmdCase{2, 8},
                                           SpmdCase{4, 8}, SpmdCase{8, 8},
                                           SpmdCase{3, 7}, SpmdCase{8, 16}));

TEST(SpmdIgp, WithoutRefinement) {
  const mesh::MeshSequence seq = mesh::make_small_mesh_sequence(500, {60}, 5);
  const Partitioning initial =
      spectral::recursive_spectral_bisection(seq.graphs[0], 8);

  IgpOptions options;
  options.refine = false;
  const IgpResult expected = test::igp_repartition(
      seq.graphs[1], initial, seq.graphs[0].num_vertices(), options);

  MachineExecutor executor(4);
  const IgpResult actual =
      test::spmd_repartition(executor, seq.graphs[1], initial,
                             seq.graphs[0].num_vertices(), options);
  EXPECT_EQ(expected.partitioning.part, actual.partitioning.part);
}

TEST(SpmdIgp, MachineIsReusable) {
  const mesh::MeshSequence seq =
      mesh::make_small_mesh_sequence(500, {40, 40}, 7);
  Partitioning current =
      spectral::recursive_spectral_bisection(seq.graphs[0], 8);

  MachineExecutor executor(4);
  for (std::size_t step = 0; step + 1 < seq.graphs.size(); ++step) {
    const IgpResult result =
        test::spmd_repartition(executor, seq.graphs[step + 1], current,
                               seq.graphs[step].num_vertices());
    EXPECT_TRUE(graph::is_balanced(seq.graphs[step + 1],
                                   result.partitioning, 1.0))
        << "step " << step;
    current = result.partitioning;
  }
}

}  // namespace
}  // namespace pigp::core
