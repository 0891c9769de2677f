// Step 3: LP load balancing with multi-stage alpha relaxation (§2.3).

#include "core/balance.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "graph/generators.hpp"
#include "graph/partition.hpp"

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

TEST(LayerDepth, StartsAtTheCapThenDoublesTheTotalDepth) {
  LayerDepth depth(4);
  EXPECT_EQ(depth.budget, 4);
  EXPECT_EQ(depth.deepen(), 4);
  EXPECT_EQ(depth.budget, 8);
  EXPECT_EQ(depth.deepen(), 8);
  EXPECT_EQ(depth.budget, 16);
  EXPECT_EQ(LayerDepth(0).budget, -1);  // unlimited
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
  const Graph g = graph::random_geometric_graph(400, 0.08, 61);
  Partitioning a;
  a.num_parts = 4;
  a.part.resize(400);
  for (VertexId v = 0; v < 400; ++v) {
    a.part[static_cast<std::size_t>(v)] = v < 250 ? 0 : (v % 3 + 1);
  }
  Partitioning b = a;

  BalanceOptions dense;
  dense.solver = LpSolverKind::dense;
  BalanceOptions bounded;
  bounded.solver = LpSolverKind::bounded;
  const BalanceResult ra = balance_load(g, a, dense);
  const BalanceResult rb = balance_load(g, b, bounded);
  EXPECT_EQ(ra.balanced, rb.balanced);
  EXPECT_TRUE(graph::is_balanced(g, a, 0.5));
  EXPECT_TRUE(graph::is_balanced(g, b, 0.5));
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

}  // namespace
}  // namespace pigp::core
