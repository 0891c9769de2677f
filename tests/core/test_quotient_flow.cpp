// The quotient-flow model reproduces the paper's three LPs exactly.
//
// The golden fingerprints below were captured from the per-LP builders
// this model replaced (the balance LP, the inline best-effort LP and the
// refinement LP), on the same inputs.  A fingerprint is name-free: the
// sense, each variable's (objective, lower, upper) in index order, and each
// row's [type, rhs, var:coeff...] in order, doubles in hexfloat so equality
// is exact.  Identical LPs mean identical pivots and decisions.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/balance.hpp"
#include "core/refine.hpp"
#include "core/transfer.hpp"

namespace pigp::core {
namespace {

std::string fingerprint(const lp::LinearProgram& program) {
  std::ostringstream os;
  os << std::hexfloat;
  os << (program.sense() == lp::Sense::minimize ? "min" : "max");
  for (const lp::Variable& v : program.variables()) {
    os << " (" << v.objective << ',' << v.lower << ',' << v.upper << ')';
  }
  for (const lp::Row& row : program.rows()) {
    os << " [" << static_cast<int>(row.type) << ',' << row.rhs;
    for (const auto& [var, coeff] : row.coeffs) {
      os << ',' << var << ':' << coeff;
    }
    os << ']';
  }
  return os.str();
}

std::string fingerprint(const QuotientFlow& flow) {
  return fingerprint(to_linear_program(flow));
}

/// Four partitions; partition 3 has no arc in either direction.
pigp::DenseMatrix<std::int64_t> case_eps() {
  pigp::DenseMatrix<std::int64_t> eps(4, 4, 0);
  eps(0, 1) = 3;
  eps(1, 0) = 1;
  eps(1, 2) = 4;
  eps(2, 0) = 2;
  eps(2, 1) = 2;
  return eps;
}

const std::vector<double> kExcess = {5.0, -1.0, -3.0, -1.0};

using Buckets = pigp::DenseMatrix<std::vector<GainCandidate>>;

struct Cell {
  std::size_t i, j;
  std::vector<double> gains;
};

Buckets buckets(std::size_t parts, const std::vector<Cell>& cells) {
  Buckets b(parts, parts);
  graph::VertexId next = 0;
  for (const Cell& cell : cells) {
    for (const double g : cell.gains) {
      b(cell.i, cell.j).push_back(GainCandidate{next++, g});
    }
  }
  return b;
}

/// Positive- and zero-gain candidates side by side, a fractional mean gain
/// (2.5 / 3), and partition 3 without candidates.
Buckets both_lanes() {
  return buckets(4, {{0, 1, {2.0, 1.0, 0.0, 0.0}},
                     {1, 0, {3.0}},
                     {1, 2, {0.0}},
                     {2, 0, {1.0, 1.0, 0.5, 0.0}},
                     {2, 1, {0.25}}});
}

TEST(QuotientFlowGolden, BalanceAlphaOne) {
  const QuotientFlow flow =
      balance_flow(case_eps(), staged_requirements(kExcess, 1.0));
  EXPECT_EQ(fingerprint(flow),
            "min (0x1p+0,0x0p+0,0x1.8p+1) (0x1p+0,0x0p+0,0x1p+0)"
            " (0x1p+0,0x0p+0,0x1p+2) (0x1p+0,0x0p+0,0x1p+1)"
            " (0x1p+0,0x0p+0,0x1p+1)"
            " [2,0x1.4p+2,0:0x1p+0,1:-0x1p+0,3:-0x1p+0]"
            " [2,-0x1p+0,1:0x1p+0,0:-0x1p+0,2:0x1p+0,4:-0x1p+0]"
            " [2,-0x1.8p+1,3:0x1p+0,4:0x1p+0,2:-0x1p+0] [2,-0x1p+0]");
}

TEST(QuotientFlowGolden, BalanceAlphaFour) {
  const QuotientFlow flow =
      balance_flow(case_eps(), staged_requirements(kExcess, 4.0));
  EXPECT_EQ(fingerprint(flow),
            "min (0x1p+0,0x0p+0,0x1.8p+1) (0x1p+0,0x0p+0,0x1p+0)"
            " (0x1p+0,0x0p+0,0x1p+2) (0x1p+0,0x0p+0,0x1p+1)"
            " (0x1p+0,0x0p+0,0x1p+1) [2,0x1p+0,0:0x1p+0,1:-0x1p+0,3:-0x1p+0]"
            " [2,0x0p+0,1:0x1p+0,0:-0x1p+0,2:0x1p+0,4:-0x1p+0]"
            " [2,-0x1p+0,3:0x1p+0,4:0x1p+0,2:-0x1p+0] [2,0x0p+0]");
}

TEST(QuotientFlowGolden, BestEffortNonzeroSupply) {
  const QuotientFlow flow =
      best_effort_flow(case_eps(), staged_requirements(kExcess, 1.0));
  EXPECT_EQ(fingerprint(flow),
            "min (0x1.0624dd2f1a9fcp-10,0x0p+0,0x1.8p+1)"
            " (0x1.0624dd2f1a9fcp-10,0x0p+0,0x1p+0)"
            " (0x1.0624dd2f1a9fcp-10,0x0p+0,0x1p+2)"
            " (0x1.0624dd2f1a9fcp-10,0x0p+0,0x1p+1)"
            " (0x1.0624dd2f1a9fcp-10,0x0p+0,0x1p+1) (0x1p+0,0x0p+0,inf)"
            " (0x1p+0,0x0p+0,inf) (0x1p+0,0x0p+0,inf) (0x1p+0,0x0p+0,inf)"
            " (0x1p+0,0x0p+0,inf) (0x1p+0,0x0p+0,inf) (0x1p+0,0x0p+0,inf)"
            " (0x1p+0,0x0p+0,inf)"
            " [2,0x1.4p+2,0:0x1p+0,1:-0x1p+0,3:-0x1p+0,5:0x1p+0,6:-0x1p+0]"
            " [2,-0x1p+0,1:0x1p+0,0:-0x1p+0,2:0x1p+0,4:-0x1p+0,"
            "7:0x1p+0,8:-0x1p+0]"
            " [2,-0x1.8p+1,3:0x1p+0,4:0x1p+0,2:-0x1p+0,9:0x1p+0,10:-0x1p+0]"
            " [2,-0x1p+0,11:0x1p+0,12:-0x1p+0]");
}

TEST(QuotientFlowGolden, BestEffortZeroSupply) {
  const QuotientFlow flow = best_effort_flow(case_eps(), {0.0, 0.0, 0.0, 0.0});
  EXPECT_EQ(fingerprint(flow),
            "min (0x1.0624dd2f1a9fcp-10,0x0p+0,0x1.8p+1)"
            " (0x1.0624dd2f1a9fcp-10,0x0p+0,0x1p+0)"
            " (0x1.0624dd2f1a9fcp-10,0x0p+0,0x1p+2)"
            " (0x1.0624dd2f1a9fcp-10,0x0p+0,0x1p+1)"
            " (0x1.0624dd2f1a9fcp-10,0x0p+0,0x1p+1) (0x1p+0,0x0p+0,inf)"
            " (0x1p+0,0x0p+0,inf) (0x1p+0,0x0p+0,inf) (0x1p+0,0x0p+0,inf)"
            " (0x1p+0,0x0p+0,inf) (0x1p+0,0x0p+0,inf) (0x1p+0,0x0p+0,inf)"
            " (0x1p+0,0x0p+0,inf)"
            " [2,0x0p+0,0:0x1p+0,1:-0x1p+0,3:-0x1p+0,5:0x1p+0,6:-0x1p+0]"
            " [2,0x0p+0,1:0x1p+0,0:-0x1p+0,2:0x1p+0,4:-0x1p+0,"
            "7:0x1p+0,8:-0x1p+0]"
            " [2,0x0p+0,3:0x1p+0,4:0x1p+0,2:-0x1p+0,9:0x1p+0,10:-0x1p+0]"
            " [2,0x0p+0,11:0x1p+0,12:-0x1p+0]");
}

TEST(QuotientFlowGolden, RefinementBothLanes) {
  const QuotientFlow flow = refinement_flow(both_lanes(), 1.0);
  EXPECT_EQ(fingerprint(flow),
            "max (0x1.8p+0,0x0p+0,0x1p+1)"
            " (0x1.0624dd2f1a9fcp-10,0x0p+0,0x1p+1) (0x1.8p+1,0x0p+0,0x1p+0)"
            " (0x1.0624dd2f1a9fcp-10,0x0p+0,0x1p+0)"
            " (0x1.aaaaaaaaaaaabp-1,0x0p+0,0x1.8p+1)"
            " (0x1.0624dd2f1a9fcp-10,0x0p+0,0x1p+0) (0x1p-2,0x0p+0,0x1p+0)"
            " [2,0x0p+0,0:0x1p+0,1:0x1p+0,2:-0x1p+0,4:-0x1p+0,5:-0x1p+0]"
            " [2,0x0p+0,2:0x1p+0,0:-0x1p+0,1:-0x1p+0,3:0x1p+0,6:-0x1p+0]"
            " [2,0x0p+0,4:0x1p+0,5:0x1p+0,6:0x1p+0,3:-0x1p+0]");
}

TEST(QuotientFlowGolden, RefinementZeroGainLaneOnly) {
  const QuotientFlow flow = refinement_flow(
      buckets(3, {{0, 1, {0.0, 0.0, 0.0}}, {1, 0, {0.0}}, {2, 1, {0.0, 0.0}}}),
      1.0);
  EXPECT_EQ(fingerprint(flow),
            "max (0x1.0624dd2f1a9fcp-10,0x0p+0,0x1.8p+1)"
            " (0x1.0624dd2f1a9fcp-10,0x0p+0,0x1p+0)"
            " (0x1.0624dd2f1a9fcp-10,0x0p+0,0x1p+1)"
            " [2,0x0p+0,0:0x1p+0,1:-0x1p+0]"
            " [2,0x0p+0,1:0x1p+0,0:-0x1p+0,2:-0x1p+0] [2,0x0p+0,2:0x1p+0]");
}

TEST(QuotientFlowGolden, RefinementCapScaleHalf) {
  const QuotientFlow flow = refinement_flow(both_lanes(), 0.5);
  EXPECT_EQ(fingerprint(flow),
            "max (0x1.8p+0,0x0p+0,0x1p+0)"
            " (0x1.0624dd2f1a9fcp-10,0x0p+0,0x1p+0) (0x1.8p+1,0x0p+0,0x1p+0)"
            " (0x1.0624dd2f1a9fcp-10,0x0p+0,0x1p+0)"
            " (0x1.aaaaaaaaaaaabp-1,0x0p+0,0x1p+0)"
            " (0x1.0624dd2f1a9fcp-10,0x0p+0,0x1p+0) (0x1p-2,0x0p+0,0x1p+0)"
            " [2,0x0p+0,0:0x1p+0,1:0x1p+0,2:-0x1p+0,4:-0x1p+0,5:-0x1p+0]"
            " [2,0x0p+0,2:0x1p+0,0:-0x1p+0,1:-0x1p+0,3:0x1p+0,6:-0x1p+0]"
            " [2,0x0p+0,4:0x1p+0,5:0x1p+0,6:0x1p+0,3:-0x1p+0]");
}

TEST(QuotientFlowGolden, RefinementPartitionWithoutCandidates) {
  const QuotientFlow flow = refinement_flow(
      buckets(3, {{0, 1, {1.0}}, {1, 0, {2.0, 0.0}}}), 1.0);
  EXPECT_EQ(fingerprint(flow),
            "max (0x1p+0,0x0p+0,0x1p+0) (0x1p+1,0x0p+0,0x1p+0)"
            " (0x1.0624dd2f1a9fcp-10,0x0p+0,0x1p+0)"
            " [2,0x0p+0,0:0x1p+0,1:-0x1p+0,2:-0x1p+0]"
            " [2,0x0p+0,1:0x1p+0,2:0x1p+0,0:-0x1p+0]");
}

TEST(QuotientFlowGolden, BuildBalanceLpIsTheBalanceFlow) {
  const std::vector<double> rhs = staged_requirements(kExcess, 1.0);
  EXPECT_EQ(fingerprint(build_balance_lp(case_eps(), rhs, nullptr)),
            fingerprint(balance_flow(case_eps(), rhs)));
}

TEST(QuotientFlow, HarvestSumsLanesIntoTheMoveMatrix) {
  // Node 0 ships 3 units to node 1: 1 over the cheap lane (its capacity),
  // 2 over the dear one; the priced return arc 1 -> 0 stays empty.
  QuotientFlow flow(2, lp::Sense::minimize, 2);
  flow.lanes[0].capacity(0, 1) = 1.0;
  flow.lanes[0].cost(0, 1) = 1.0;
  flow.lanes[1].capacity(0, 1) = 5.0;
  flow.lanes[1].cost(0, 1) = 2.0;
  flow.lanes[0].capacity(1, 0) = 4.0;
  flow.lanes[0].cost(1, 0) = 1.0;
  flow.supply = {3.0, -3.0};
  const FlowResult result =
      solve_flow(flow, LpSolverKind::dense, lp::SimplexOptions{});
  ASSERT_EQ(result.status, lp::SolveStatus::optimal);
  EXPECT_EQ(result.moves(0, 1), 3);
  EXPECT_EQ(result.moves(1, 0), 0);
  EXPECT_EQ(result.moved, 3);
  EXPECT_DOUBLE_EQ(result.objective, 5.0);
  EXPECT_EQ(result.lp_variables, 3);
  EXPECT_EQ(result.lp_rows, 2);
}

}  // namespace
}  // namespace pigp::core
