// Step 3: LP load balancing with multi-stage alpha relaxation (§2.3).

#include "core/balance.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "../lp/flow_oracle.hpp"
#include "core/assign.hpp"
#include "core/layering.hpp"
#include "core/transfer.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/partition.hpp"
#include "graph/partition_state.hpp"
#include "mesh/paper_meshes.hpp"
#include "spectral/partitioners.hpp"

namespace pigp::core {
namespace {

using graph::Graph;
using graph::Partitioning;
using graph::VertexId;

TEST(StagedRequirements, AlphaOneIsIdentityForIntegers) {
  const std::vector<double> excess = {8.0, 1.0, -1.0, -8.0};
  const auto rhs = staged_requirements(excess, 1.0);
  EXPECT_EQ(rhs, excess);
}

TEST(StagedRequirements, SumsToZeroAfterRounding) {
  const std::vector<double> excess = {7.0, 2.0, -3.0, -6.0};
  for (const double alpha : {2.0, 3.0, 4.0, 8.0}) {
    const auto rhs = staged_requirements(excess, alpha);
    EXPECT_DOUBLE_EQ(std::accumulate(rhs.begin(), rhs.end(), 0.0), 0.0)
        << "alpha " << alpha;
    for (std::size_t q = 0; q < rhs.size(); ++q) {
      EXPECT_NEAR(rhs[q], excess[q] / alpha, 1.0) << "alpha " << alpha;
    }
  }
}

TEST(StagedRequirements, AlphaShrinksRequirements) {
  const std::vector<double> excess = {16.0, 0.0, -16.0};
  const auto rhs = staged_requirements(excess, 4.0);
  EXPECT_DOUBLE_EQ(rhs[0], 4.0);
  EXPECT_DOUBLE_EQ(rhs[2], -4.0);
}

TEST(BuildBalanceLp, OnlyPositiveEpsPairsGetVariables) {
  pigp::DenseMatrix<std::int64_t> eps(3, 3, 0);
  eps(0, 1) = 5;
  eps(1, 0) = 2;
  eps(1, 2) = 3;
  pigp::DenseMatrix<int> vars;
  const lp::LinearProgram program =
      build_balance_lp(eps, {2.0, -1.0, -1.0}, &vars);
  EXPECT_EQ(program.num_variables(), 3);
  EXPECT_EQ(program.num_rows(), 3);
  EXPECT_GE(vars(0, 1), 0);
  EXPECT_GE(vars(1, 0), 0);
  EXPECT_GE(vars(1, 2), 0);
  EXPECT_EQ(vars(0, 2), -1);
  EXPECT_EQ(vars(2, 0), -1);
}

// The one stage rule both balance drivers apply (decide_stage), on
// hand-built capacities: two partitions, partition 0 two units heavy.  One
// unit of 0 -> 1 capacity fits α = 2 (rhs {1, -1}) but not α = 1.

pigp::DenseMatrix<std::int64_t> two_part_eps(std::int64_t capacity) {
  pigp::DenseMatrix<std::int64_t> eps(2, 2, 0);
  eps(0, 1) = capacity;
  return eps;
}

const std::vector<double> kTwoHeavy = {2.0, -2.0};

TEST(DecideStage, AcceptsAlphaOneBeforeExhaustionAtTheBudgetDepth) {
  const StageDecision d =
      decide_stage(two_part_eps(5), kTwoHeavy, false, 4, BalanceOptions{});
  EXPECT_FALSE(d.deepen);
  EXPECT_TRUE(d.progress);
  EXPECT_EQ(d.stats.alpha, 1.0);
  EXPECT_EQ(d.stats.layer_depth, 4);
  EXPECT_EQ(d.moves(0, 1), 2);
}

TEST(DecideStage, DeepensWhenOnlyARelaxedAlphaFitsBeforeExhaustion) {
  const StageDecision d =
      decide_stage(two_part_eps(1), kTwoHeavy, false, 4, BalanceOptions{});
  EXPECT_TRUE(d.deepen);
  EXPECT_FALSE(d.progress);
}

TEST(DecideStage, AcceptsRelaxedAlphaAtExhaustion) {
  const StageDecision d =
      decide_stage(two_part_eps(1), kTwoHeavy, true, 4, BalanceOptions{});
  EXPECT_FALSE(d.deepen);
  EXPECT_TRUE(d.progress);
  EXPECT_EQ(d.stats.alpha, 2.0);
  EXPECT_EQ(d.stats.layer_depth, -1);
  EXPECT_EQ(d.moves(0, 1), 1);
}

TEST(DecideStage, FallsBackToBestEffortWhenNoAlphaFitsAtExhaustion) {
  const StageDecision d =
      decide_stage(two_part_eps(0), kTwoHeavy, true, 4, BalanceOptions{});
  EXPECT_FALSE(d.deepen);
  EXPECT_FALSE(d.progress);  // no arc: best effort moves nothing
  EXPECT_EQ(d.stats.alpha, 0.0);
  EXPECT_EQ(d.stats.layer_depth, -1);
  EXPECT_EQ(d.stats.lp_variables, 4);  // two slack pairs, no arcs
}

TEST(LayerDepth, StartsOnTheSeedShellThenTheCapThenDoubles) {
  LayerDepth depth(4);
  EXPECT_EQ(depth.budget, 0);  // the first decision: layer 0 only
  EXPECT_EQ(depth.deepen(), 4);
  EXPECT_EQ(depth.budget, 4);
  EXPECT_EQ(depth.deepen(), 4);
  EXPECT_EQ(depth.budget, 8);
  EXPECT_EQ(depth.deepen(), 8);
  EXPECT_EQ(depth.budget, 16);
  LayerDepth unlimited(0);
  EXPECT_EQ(unlimited.budget, -1);
  EXPECT_EQ(unlimited.deepen(), -1);  // already grown to exhaustion
  EXPECT_EQ(unlimited.budget, -1);
}

/// Build a path with a deliberately skewed partitioning.
Partitioning skewed_path_partitioning(int n, int split, int parts) {
  Partitioning p;
  p.num_parts = parts;
  p.part.assign(static_cast<std::size_t>(n), 0);
  for (int v = split; v < n; ++v) {
    p.part[static_cast<std::size_t>(v)] =
        static_cast<graph::PartId>(1 + (v - split) % (parts - 1));
  }
  return p;
}

TEST(BalanceLoad, RebalancesSkewedPath) {
  const Graph g = graph::path_graph(40);
  // Partition 0 holds 28 of 40 vertices; 2 partitions total.
  Partitioning p = skewed_path_partitioning(40, 28, 2);

  BalanceOptions opt;
  const BalanceResult r = balance_load(g, p, opt);
  EXPECT_TRUE(r.balanced);
  EXPECT_TRUE(graph::is_balanced(g, p, 0.5));
  // A path rebalance should touch only the 8 vertices that must cross.
  ASSERT_FALSE(r.stages.empty());
  EXPECT_DOUBLE_EQ(r.stages[0].vertices_moved, 8.0);
}

TEST(BalanceLoad, AlreadyBalancedIsANoop) {
  const Graph g = graph::path_graph(20);
  Partitioning p;
  p.num_parts = 2;
  p.part.assign(20, 0);
  for (int v = 10; v < 20; ++v) p.part[static_cast<std::size_t>(v)] = 1;
  const Partitioning before = p;

  const BalanceResult r = balance_load(g, p);
  EXPECT_TRUE(r.balanced);
  EXPECT_TRUE(r.stages.empty());
  EXPECT_EQ(p.part, before.part);
}

TEST(BalanceLoad, GridFourPartitions) {
  const Graph g = graph::grid_graph(8, 8);
  // Column-striped partitioning with uneven stripes: 4 | 1 | 1 | 2 columns.
  Partitioning p;
  p.num_parts = 4;
  p.part.resize(64);
  for (int r = 0; r < 8; ++r) {
    for (int c = 0; c < 8; ++c) {
      const int q = c < 4 ? 0 : (c < 5 ? 1 : (c < 6 ? 2 : 3));
      p.part[static_cast<std::size_t>(r * 8 + c)] =
          static_cast<graph::PartId>(q);
    }
  }
  const BalanceResult r = balance_load(g, p);
  EXPECT_TRUE(r.balanced);
  EXPECT_TRUE(graph::is_balanced(g, p, 0.5));
}

TEST(BalanceLoad, SevereImbalanceNeedsMultipleStages) {
  // A long path where one partition holds almost everything; the boundary
  // can only shed a few vertices per stage, forcing alpha staging.
  const int n = 120;
  const Graph g = graph::path_graph(n);
  Partitioning p;
  p.num_parts = 6;
  p.part.assign(static_cast<std::size_t>(n), 0);
  // Partitions 1..5 hold two vertices each at the far end.
  for (int q = 1; q <= 5; ++q) {
    p.part[static_cast<std::size_t>(n - 2 * q)] =
        static_cast<graph::PartId>(q);
    p.part[static_cast<std::size_t>(n - 2 * q + 1)] =
        static_cast<graph::PartId>(q);
  }
  BalanceOptions opt;
  // Every inter-partition frontier of a path is one vertex wide, so each
  // stage can only push a few vertices along the chain — the worst case
  // for staging (26 stages in practice).
  opt.max_stages = 40;
  const BalanceResult r = balance_load(g, p, opt);
  EXPECT_TRUE(r.balanced);
  EXPECT_GT(static_cast<int>(r.stages.size()), 1);  // one shot impossible
  EXPECT_TRUE(graph::is_balanced(g, p, 0.5));
}

TEST(BalanceLoad, StageCountGrowsWithImbalance) {
  // Mirrors Figure 14's IGP(1)/IGP(2)/IGP(3): larger localized insertions
  // need more stages.
  const Graph g = graph::grid_graph(12, 12);
  std::vector<int> stages_used;
  for (const int stripe : {6, 3, 1}) {
    // Partition 0 gets `stripe` columns of 12, remaining 3 partitions split
    // the rest; small stripe for part 0 => heavier imbalance elsewhere.
    Partitioning p;
    p.num_parts = 4;
    p.part.resize(144);
    for (int r = 0; r < 12; ++r) {
      for (int c = 0; c < 12; ++c) {
        graph::PartId q = 0;
        if (c >= stripe) q = static_cast<graph::PartId>(1 + (c - stripe) % 3);
        p.part[static_cast<std::size_t>(r * 12 + c)] = q;
      }
    }
    BalanceOptions opt;
    opt.max_stages = 30;
    const BalanceResult r = balance_load(g, p, opt);
    EXPECT_TRUE(r.balanced) << "stripe " << stripe;
    stages_used.push_back(static_cast<int>(r.stages.size()));
  }
  EXPECT_LE(stages_used[0], stages_used[2]);
}

TEST(BalanceLoad, BoundedSolverGivesSameBalance) {
  // Every stage of the network-solved balance against the bounded-variable
  // simplex and the paper's dense simplex on the same layering: the
  // reference ladder's first feasible α and its move count are the
  // stage's.  max_layers = 0 grows each stage's layering to exhaustion,
  // the capacities the reference ladder is given.
  const Graph g = graph::random_geometric_graph(400, 0.08, 61);
  Partitioning initial;
  initial.num_parts = 4;
  initial.part.resize(400);
  for (VertexId v = 0; v < 400; ++v) {
    initial.part[static_cast<std::size_t>(v)] = v < 250 ? 0 : (v % 3 + 1);
  }
  BalanceOptions options;
  options.max_layers = 0;
  Partitioning p = initial;
  const BalanceResult result = balance_load(g, p, options);
  EXPECT_TRUE(result.balanced);
  EXPECT_TRUE(graph::is_balanced(g, p, 0.5));
  ASSERT_FALSE(result.stages.empty());

  std::vector<double> targets;
  graph::balance_targets_into(g.total_vertex_weight(), initial.num_parts,
                              targets);
  for (std::size_t s = 0; s < result.stages.size(); ++s) {
    // The partition stage s starts from: the first s stages' output.
    Partitioning before = initial;
    if (s > 0) {
      BalanceOptions first = options;
      first.max_stages = static_cast<int>(s);
      (void)balance_load(g, before, first);
    }
    const graph::PartitionState state(g, before);
    std::vector<double> excess(targets.size(), 0.0);
    (void)compute_excess(state.weights(), targets, excess);
    BoundaryLayering layering(g, before);
    layering.reseed(state);
    layering.grow(-1);
    for (const oracle::Solver solver :
         {oracle::Solver::bounded, oracle::Solver::dense}) {
      const oracle::Rung want = oracle::first_feasible_rung(
          layering.eps(), excess, options.alpha_max, solver);
      EXPECT_EQ(result.stages[s].alpha, want.alpha) << "stage " << s;
      EXPECT_EQ(result.stages[s].vertices_moved,
                static_cast<double>(want.flow.moved))
          << "stage " << s;
    }
  }
}

TEST(BalanceLoad, VerticesMovePreferentiallyFromBoundary) {
  // Path {0..27 | 28..39}: the 8 vertices that change side must be exactly
  // 20..27 (the ones nearest the boundary).
  const Graph g = graph::path_graph(40);
  Partitioning p;
  p.num_parts = 2;
  p.part.assign(40, 0);
  for (int v = 28; v < 40; ++v) p.part[static_cast<std::size_t>(v)] = 1;
  (void)balance_load(g, p);
  for (int v = 0; v < 20; ++v) {
    EXPECT_EQ(p.part[static_cast<std::size_t>(v)], 0) << v;
  }
  for (int v = 20; v < 40; ++v) {
    EXPECT_EQ(p.part[static_cast<std::size_t>(v)], 1) << v;
  }
}

TEST(BalanceTransfer, VertexHeavierThanTheRequestGoesLastInItsLayer) {
  // Part 0 = {0 (weight 2), 1}, part 1 = {2, 3}; both part-0 vertices are
  // layer-0 seeds headed for part 1, and vertex 0 is the more attracted.
  graph::GraphBuilder b;
  (void)b.add_vertex(2.0);
  for (int k = 0; k < 3; ++k) (void)b.add_vertex();
  b.add_edge(0, 2);
  b.add_edge(0, 3);
  b.add_edge(1, 2);
  const Graph g = b.build();
  Partitioning p;
  p.num_parts = 2;
  p.part = {0, 0, 1, 1};
  const graph::PartitionState state(g, p);
  BoundaryLayering layering(g, p);
  layering.reseed(state);
  ASSERT_EQ(layering.eps()(0, 1), 2);

  const auto select = [&](std::int64_t count) {
    const std::int64_t move_row[2] = {0, count};
    TransferScratch scratch;
    select_partition_transfers(g, p, layering.label(), layering.layer(),
                               layering.labeled(0), 0, move_row, scratch);
    return scratch.chosen;
  };
  // One unit of weight requested: the weight-2 vertex would overshoot it.
  EXPECT_EQ(select(1), (std::vector<VertexId>{1}));
  // Two requested: it fits, and attraction orders the pair.
  EXPECT_EQ(select(2), (std::vector<VertexId>{0, 1}));
}

/// The first stage of balance_load on \p g from \p initial, and the
/// partitioning it leaves.
struct FirstStage {
  BalanceStage stage;
  Partitioning after;
};

FirstStage first_stage(const Graph& g, const Partitioning& initial,
                       int max_layers) {
  BalanceOptions options;
  options.max_layers = max_layers;
  options.max_stages = 1;
  FirstStage out{{}, initial};
  const BalanceResult r = balance_load(g, out.after, options);
  EXPECT_EQ(r.stages.size(), 1u);
  if (!r.stages.empty()) out.stage = r.stages.front();
  return out;
}

TEST(BalanceLoad, FirstDecisionOnTheSeedShell) {
  // A refined mesh whose new vertices join their nearest old partition:
  // a mild excess that the boundary carries, so stage 0 is decided on the
  // layer-0 seeds without growing the layering.
  const mesh::MeshFamily family = mesh::make_small_mesh_family(600, {40}, 9);
  const Graph& g = family.refined.front();
  const Partitioning base = spectral::recursive_graph_bisection(family.base, 8);
  const Partitioning initial =
      extend_assignment(g, base, family.base.num_vertices());
  ASSERT_FALSE(graph::is_balanced(g, initial, 0.5));

  const FirstStage shell = first_stage(g, initial, 4);
  EXPECT_EQ(shell.stage.layer_depth, 0);
  EXPECT_EQ(shell.stage.alpha, first_stage(g, initial, 0).stage.alpha);

  // Every mover was a layer-0 vertex of its source, labelled with the
  // partition it moved to.
  const graph::PartitionState state(g, initial);
  BoundaryLayering seeds(g, initial);
  seeds.reseed(state);
  double moved = 0.0;
  for (std::size_t v = 0; v < initial.part.size(); ++v) {
    if (shell.after.part[v] == initial.part[v]) continue;
    moved += 1.0;
    EXPECT_EQ(seeds.layer()[v], 0) << "vertex " << v;
    EXPECT_EQ(seeds.label()[v], shell.after.part[v]) << "vertex " << v;
  }
  EXPECT_GT(moved, 0.0);
  EXPECT_EQ(moved, shell.stage.vertices_moved);
}

TEST(BalanceLoad, SeedShellTooSmallDeepensToTheExhaustiveAlpha) {
  // Grid columns 0..9 | 10..15: an excess of 32 across a 16-vertex
  // frontier.  The seed shell cannot carry it, so the stage deepens to
  // max_layers (16 × 5 = 80 ≥ 32) and accepts α = 1 there.
  const Graph grid = graph::grid_graph(16, 16);
  Partitioning columns;
  columns.num_parts = 2;
  columns.part.resize(256);
  for (int v = 0; v < 256; ++v) {
    columns.part[static_cast<std::size_t>(v)] = v % 16 < 10 ? 0 : 1;
  }
  const FirstStage deepened = first_stage(grid, columns, 4);
  EXPECT_EQ(deepened.stage.layer_depth, 4);
  EXPECT_EQ(deepened.stage.alpha, 1.0);
  EXPECT_EQ(deepened.stage.alpha, first_stage(grid, columns, 0).stage.alpha);

  // The severe path of SevereImbalanceNeedsMultipleStages: only a relaxed
  // α fits, so the stage deepens to exhaustion and picks the exhaustive
  // run's α.
  const int n = 120;
  const Graph path = graph::path_graph(n);
  Partitioning chain;
  chain.num_parts = 6;
  chain.part.assign(static_cast<std::size_t>(n), 0);
  for (int q = 1; q <= 5; ++q) {
    chain.part[static_cast<std::size_t>(n - 2 * q)] =
        static_cast<graph::PartId>(q);
    chain.part[static_cast<std::size_t>(n - 2 * q + 1)] =
        static_cast<graph::PartId>(q);
  }
  const FirstStage exhausted = first_stage(path, chain, 4);
  EXPECT_EQ(exhausted.stage.layer_depth, -1);
  EXPECT_GT(exhausted.stage.alpha, 1.0);
  EXPECT_EQ(exhausted.stage.alpha, first_stage(path, chain, 0).stage.alpha);
}

}  // namespace
}  // namespace pigp::core
