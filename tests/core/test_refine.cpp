// Step 4: LP refinement (§2.4) — cut never increases, balance is preserved.

#include "core/refine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <string>
#include <vector>

#include "core/layering.hpp"
#include "core/part_tally.hpp"
#include "core/workspace.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/partition.hpp"
#include "graph/partition_state.hpp"
#include "support/rng.hpp"
#include "refine_golden_inputs.hpp"

namespace pigp::core {
namespace {

using graph::compute_metrics;
using graph::Graph;
using graph::Partitioning;
using graph::VertexId;

/// A jagged two-block split of a grid: balanced but with a ragged border
/// that refinement should straighten.
Partitioning jagged_grid_partitioning(int side) {
  Partitioning p;
  p.num_parts = 2;
  p.part.resize(static_cast<std::size_t>(side) * static_cast<std::size_t>(side));
  for (int r = 0; r < side; ++r) {
    for (int c = 0; c < side; ++c) {
      // Zig-zag boundary around the vertical midline.
      const int boundary = side / 2 + ((r % 2 == 0) ? 1 : -1);
      p.part[static_cast<std::size_t>(r * side + c)] = c < boundary ? 0 : 1;
    }
  }
  return p;
}

TEST(Refine, StraightensJaggedGridBoundary) {
  const int side = 10;
  const Graph g = graph::grid_graph(side, side);
  Partitioning p = jagged_grid_partitioning(side);
  const double before = compute_metrics(g, p).cut_total;

  const RefineStats stats = refine_partitioning(g, p);
  const double after = compute_metrics(g, p).cut_total;
  EXPECT_LE(after, before);
  EXPECT_GT(stats.rounds, 0);
  EXPECT_DOUBLE_EQ(stats.cut_before, before);
  EXPECT_DOUBLE_EQ(stats.cut_after, after);
}

TEST(Refine, PreservesLoadBalanceExactly) {
  const int side = 12;
  const Graph g = graph::grid_graph(side, side);
  Partitioning p = jagged_grid_partitioning(side);
  const auto before = compute_metrics(g, p);
  (void)refine_partitioning(g, p);
  const auto after = compute_metrics(g, p);
  // Zero-net-flow constraints: weights unchanged partition by partition.
  EXPECT_EQ(before.weight, after.weight);
}

TEST(Refine, OptimalPartitionIsAFixedPoint) {
  const Graph g = graph::grid_graph(8, 8);
  Partitioning p;
  p.num_parts = 2;
  p.part.resize(64);
  for (int r = 0; r < 8; ++r) {
    for (int c = 0; c < 8; ++c) {
      p.part[static_cast<std::size_t>(r * 8 + c)] = c < 4 ? 0 : 1;
    }
  }
  const Partitioning before = p;
  const RefineStats stats = refine_partitioning(g, p);
  EXPECT_EQ(compute_metrics(g, p).cut_total, 8.0);
  EXPECT_EQ(stats.vertices_moved, 0);  // no move improves the cut
  EXPECT_EQ(compute_metrics(g, before).cut_total,
            compute_metrics(g, p).cut_total);
}

class RefineProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RefineProperty, NeverWorsensCutAndKeepsWeights) {
  const Graph g = graph::random_geometric_graph(
      500, 0.07, GetParam() * 7 + 1);
  // Random balanced 4-way partitioning (striped by shuffled index).
  pigp::SplitMix64 rng(GetParam());
  std::vector<VertexId> order(500);
  for (int v = 0; v < 500; ++v) order[static_cast<std::size_t>(v)] = v;
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.next_below(i)]);
  }
  Partitioning p;
  p.num_parts = 4;
  p.part.resize(500);
  for (std::size_t i = 0; i < order.size(); ++i) {
    p.part[static_cast<std::size_t>(order[i])] =
        static_cast<graph::PartId>(i % 4);
  }

  const auto before = compute_metrics(g, p);
  const RefineStats stats = refine_partitioning(g, p);
  const auto after = compute_metrics(g, p);

  EXPECT_LE(after.cut_total, before.cut_total);
  EXPECT_EQ(before.weight, after.weight);
  EXPECT_LE(stats.cut_after, stats.cut_before);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RefineProperty,
                         ::testing::Range<std::uint64_t>(0, 12));

TEST(Refine, RandomPartitioningImprovesDramatically) {
  // A random assignment of a mesh-like graph has a terrible cut; LP
  // refinement should recover a large fraction.
  const Graph g = graph::random_geometric_graph(400, 0.08, 99);
  Partitioning p;
  p.num_parts = 2;
  p.part.resize(400);
  pigp::SplitMix64 rng(5);
  int count0 = 0;
  for (int v = 0; v < 400; ++v) {
    const bool zero = (count0 < 200) && (rng.next_double() < 0.5 ||
                                         400 - v <= 200 - count0);
    p.part[static_cast<std::size_t>(v)] = zero ? 0 : 1;
    if (zero) ++count0;
  }
  const double before = compute_metrics(g, p).cut_total;
  RefineOptions opt;
  opt.max_rounds = 20;
  (void)refine_partitioning(g, p, opt);
  const double after = compute_metrics(g, p).cut_total;
  EXPECT_LT(after, 0.8 * before);
}

TEST(Refine, RespectsMaxRounds) {
  const Graph g = graph::grid_graph(10, 10);
  Partitioning p = jagged_grid_partitioning(10);
  RefineOptions opt;
  opt.max_rounds = 1;
  const RefineStats stats = refine_partitioning(g, p, opt);
  EXPECT_LE(stats.rounds, 1);
}

TEST(Refine, SinglePartitionIsNoop) {
  const Graph g = graph::grid_graph(4, 4);
  Partitioning p;
  p.num_parts = 1;
  p.part.assign(16, 0);
  const RefineStats stats = refine_partitioning(g, p);
  EXPECT_EQ(stats.rounds, 0);
  EXPECT_EQ(stats.vertices_moved, 0);
}

// ---------------------------------------------------------------------------
// Golden decisions, captured from the network simplex on eight inputs.
// hub and hub_sparse take the revert path (rounds_reverted = 1): a round
// that raises the cut is undone and the batch cap halves;
// geometric_large is the largest input.
// geometric_p64 and hub_p64 run at 64 parts, where most analysed vertices
// touch a few parts out of many and tie on gain.  The table was captured
// from the two-lane refinement model (positive- and zero-gain lanes) run
// strict from round 0, whose zero-gain lane then had no arcs: the
// single-lane model reproduces it bit for bit.
// The table pins the network simplex's tie-breaking among equal optima and
// its pivot counts; the paper's dense simplex reaches the same refinement
// optima (NetworkFlowDifferential.RefinementFlowsOfTheGoldenInputs) but
// may break ties differently.

using golden::golden_input;
using golden::GoldenInput;

std::uint64_t fnv1a(const std::vector<graph::PartId>& part) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const graph::PartId q : part) {
    h ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(q));
    h *= 0x100000001b3ULL;
  }
  return h;
}

struct GoldenCase {
  const char* name;
  std::uint64_t part_hash;
  int rounds;
  int rounds_reverted;
  std::int64_t vertices_moved;
  std::int64_t lp_iterations;
  double cut_before;
  double cut_after;
};

// The "_t1" suffix and "with 1 thread(s)" keep each case's test name from
// when every input also ran at 4 threads.
void PrintTo(const GoldenCase& c, std::ostream* os) {
  *os << c.name << " with 1 thread(s)";
}

std::string golden_name(const ::testing::TestParamInfo<GoldenCase>& info) {
  return std::string(info.param.name) + "_t1";
}

/// Refine \p want's input through the batch entry and twice through the
/// state-driven entry on a warm workspace; all must land on the captured
/// result.
void expect_golden(const GoldenCase& want) {
  GoldenInput in = golden_input(want.name);
  ASSERT_GT(in.g.num_vertices(), 0) << want.name;

  // Batch entry (call-local buffers) and the state-driven entry with a
  // warm session workspace must both land on the captured result.
  Partitioning batch = in.p;
  const RefineStats s = refine_partitioning(in.g, batch, in.opt);
  Workspace ws;
  for (int pass = 0; pass < 2; ++pass) {
    Partitioning p = in.p;
    graph::PartitionState state(in.g, p);
    const RefineStats t = refine_partitioning(in.g, p, state, in.opt, &ws);
    EXPECT_EQ(p.part, batch.part);
    EXPECT_EQ(t.vertices_analyzed, s.vertices_analyzed);
    EXPECT_EQ(state.cut_total(), t.cut_after);
  }

  EXPECT_EQ(fnv1a(batch.part), want.part_hash);
  EXPECT_EQ(s.rounds, want.rounds);
  EXPECT_EQ(s.rounds_reverted, want.rounds_reverted);
  EXPECT_EQ(s.vertices_moved, want.vertices_moved);
  EXPECT_EQ(s.lp_iterations, want.lp_iterations);
  EXPECT_EQ(s.cut_before, want.cut_before);
  EXPECT_EQ(s.cut_after, want.cut_after);
  EXPECT_EQ(compute_metrics(in.g, batch).cut_total, want.cut_after);
}

const GoldenCase kGoldenNetwork[] = {
    {"grid_banded", 0x4ad63f9390bdc285ULL, 1, 0, 160, 8, 552, 240},
    {"grid_shuffled", 0xe50c61689616ce21ULL, 12, 0, 8496, 176, 3356, 1569},
    {"geometric", 0xdb274eb05917ffe7ULL, 11, 0, 3823, 254, 13824, 2962},
    {"geometric_large", 0x6fbfbc1086fddc63ULL, 8, 0, 16213, 554, 63016, 14398},
    {"hub", 0xf545d7a68c9702a3ULL, 12, 1, 15196, 173, 9009, 5453},
    {"hub_sparse", 0x892b2552a30a1451ULL, 12, 1, 5361, 77, 4008, 1974},
    {"geometric_p64", 0xde9c13666ca518ddULL, 5, 0, 2175, 4327, 31658, 9012},
    {"hub_p64", 0x0165c991ea5f4753ULL, 10, 0, 13964, 18893, 17713, 14527},
};

class RefineGoldenNetwork : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(RefineGoldenNetwork, MatchesCapturedDecisions) {
  expect_golden(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Cases, RefineGoldenNetwork,
                         ::testing::ValuesIn(kGoldenNetwork), golden_name);

TEST(Refine, RoundsAfterTheFirstAnalyseOnlyWhatTheLastRoundTouched) {
  // Round r's moves are the diff between the results capped at r - 1 and
  // r rounds; round r + 1 may re-analyse at most Σ (deg + 1) over them
  // (nothing at all after a reverted round).  Round 1 analyses exactly the
  // initial boundary.
  for (const char* name : {"geometric", "hub"}) {
    GoldenInput in = golden_input(name);
    const auto capped = [&](int rounds, Partitioning& p) {
      p = in.p;
      RefineOptions opt = in.opt;
      opt.max_rounds = rounds;
      return refine_partitioning(in.g, p, opt);
    };
    const graph::PartitionState initial(in.g, in.p);
    std::vector<VertexId> boundary;
    initial.boundary_ascending(boundary);

    Partitioning prev;
    std::int64_t prev_analyzed = capped(1, prev).vertices_analyzed;
    EXPECT_EQ(prev_analyzed, static_cast<std::int64_t>(boundary.size()))
        << name;
    for (int r = 2; r <= in.opt.max_rounds; ++r) {
      Partitioning cur;
      const std::int64_t analyzed = capped(r, cur).vertices_analyzed;
      // Moves of round r - 1: compare the results capped at r - 2 and r - 1.
      Partitioning before;
      if (r >= 3) {
        (void)capped(r - 2, before);
      } else {
        before = in.p;
      }
      std::int64_t bound = 0;
      for (VertexId v = 0; v < in.g.num_vertices(); ++v) {
        const auto vi = static_cast<std::size_t>(v);
        if (before.part[vi] != prev.part[vi]) {
          bound += static_cast<std::int64_t>(in.g.neighbors(v).size()) + 1;
        }
      }
      EXPECT_LE(analyzed - prev_analyzed, bound) << name << " round " << r;
      prev = std::move(cur);
      prev_analyzed = analyzed;
    }
  }
}

/// The buckets a full walk of \p p's boundary assembles from fresh
/// analyses: every boundary vertex whose best gain is > 0, in the cell
/// (part, best), ascending by id.
pigp::DenseMatrix<std::vector<GainCandidate>> walked_buckets(
    const Graph& g, const Partitioning& p) {
  const auto parts = static_cast<std::size_t>(p.num_parts);
  const graph::PartitionState state(g, p);
  PartTally tally;
  tally.resize(parts);
  pigp::DenseMatrix<std::vector<GainCandidate>> buckets(parts, parts);
  state.for_each_boundary([&](VertexId v) {
    const auto a = analyze_vertex(g, p, v, tally);
    if (!a || a->best < 0 || a->gain <= 0.0) return;
    buckets(static_cast<std::size_t>(p.part[static_cast<std::size_t>(v)]),
            static_cast<std::size_t>(a->best))
        .push_back(GainCandidate{v, a->gain});
  });
  return buckets;
}

std::size_t boundary_size(const Graph& g, const Partitioning& p) {
  std::size_t n = 0;
  graph::PartitionState(g, p).for_each_boundary([&n](VertexId) { ++n; });
  return n;
}

TEST(Refine, IncrementalBucketsEqualAFullWalkEveryRound) {
  // Refinement capped at r rounds leaves in the workspace the buckets its
  // last round solved on, which it began from the result capped at r - 1.
  // They must equal a full walk of that partitioning, whichever way they
  // were reached: the first round's walk, re-bucketing a kept round's
  // moves, reusing a reverted round's buckets, or walking again because a
  // kept round touched more than a quarter of the boundary the last walk
  // counted (the size rule, replayed here to show that both update paths
  // ran).
  int reused = 0;
  int rebucketed = 0;
  int rewalked = 0;
  for (const char* name : {"geometric", "hub"}) {
    GoldenInput in = golden_input(name);
    Partitioning start = in.p;  // where round r begins
    std::size_t walked = boundary_size(in.g, start);
    int* pending = nullptr;  // how round r's buckets were reached
    int reverted_before = 0;
    for (int r = 1; r <= in.opt.max_rounds; ++r) {
      Partitioning p = in.p;
      graph::PartitionState state(in.g, p);
      Workspace ws;
      RefineOptions opt = in.opt;
      opt.max_rounds = r;
      const RefineStats s = refine_partitioning(in.g, p, state, opt, &ws);
      if (s.rounds < r) break;  // refinement ended before round r
      EXPECT_TRUE(ws.refine_candidates == walked_buckets(in.g, start))
          << name << " round " << r;
      if (pending != nullptr) ++*pending;

      if (s.rounds_reverted > reverted_before) {
        EXPECT_EQ(p.part, start.part) << name << " round " << r;
        pending = &reused;
      } else {
        std::vector<char> touched(p.part.size(), 0);
        for (VertexId v = 0; v < in.g.num_vertices(); ++v) {
          const auto vi = static_cast<std::size_t>(v);
          if (p.part[vi] == start.part[vi]) continue;
          touched[vi] = 1;
          for (const VertexId u : in.g.neighbors(v)) {
            touched[static_cast<std::size_t>(u)] = 1;
          }
        }
        const auto count = static_cast<std::size_t>(
            std::count(touched.begin(), touched.end(), 1));
        if (count > walked / 4) {
          walked = boundary_size(in.g, p);
          pending = &rewalked;
        } else {
          pending = &rebucketed;
        }
        start = p;
      }
      reverted_before = s.rounds_reverted;
    }
  }
  EXPECT_GT(reused, 0);
  EXPECT_GT(rebucketed, 0);
  EXPECT_GT(rewalked, 0);
}

}  // namespace
}  // namespace pigp::core
