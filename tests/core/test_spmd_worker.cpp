// The fully distributed sharded worker (core/spmd_worker): bit-parity with
// the replicated in-process SPMD engine, shard loader identity, residency
// invariants, and the memory claim (adjacency sharded across ranks).

#include "core/spmd_worker.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <utility>
#include <vector>

#include "copying_repartition.hpp"
#include "core/spmd_igp.hpp"
#include "graph/io.hpp"
#include "graph/partition.hpp"
#include "graph/shard.hpp"
#include "mesh/paper_meshes.hpp"
#include "support/check.hpp"

namespace pigp::core {
namespace {

using graph::Graph;
using graph::GraphShard;
using graph::Partitioning;

IgpOptions rebalance_options() {
  IgpOptions options;
  options.refine = false;  // the sharded worker is balance-only
  return options;
}

/// Run the sharded worker on every rank of \p executor against fresh
/// shards of (g, initial); returns rank 0's final partitioning and stats
/// (asserting every rank's replica agrees).
std::pair<Partitioning, SpmdWorkerStats> run_worker(
    SpmdExecutor& executor, const Graph& g, const Partitioning& initial,
    const IgpOptions& options) {
  const int ranks = executor.num_ranks();
  std::vector<GraphShard> shards;
  shards.reserve(static_cast<std::size_t>(ranks));
  for (int r = 0; r < ranks; ++r) {
    shards.push_back(graph::make_shard(g, initial, r, ranks));
  }
  std::vector<SpmdWorkerStats> stats(static_cast<std::size_t>(ranks));
  executor.run([&](net::Transport& t) {
    stats[static_cast<std::size_t>(t.rank())] = spmd_worker_rebalance(
        t, shards[static_cast<std::size_t>(t.rank())], options);
  });
  for (int r = 1; r < ranks; ++r) {
    EXPECT_EQ(shards[0].partitioning.part,
              shards[static_cast<std::size_t>(r)].partitioning.part)
        << "replica divergence on rank " << r;
    EXPECT_EQ(stats[0].stages, stats[static_cast<std::size_t>(r)].stages);
    EXPECT_EQ(stats[0].cut, stats[static_cast<std::size_t>(r)].cut);
  }
  return {shards[0].partitioning, stats[0]};
}

TEST(Shard, LoaderMatchesInMemoryCut) {
  const mesh::MeshSequence seq = mesh::make_small_mesh_sequence(400, {}, 3);
  const Graph& g = seq.graphs[0];
  const Partitioning p =
      graph::contiguous_partitioning(g.num_vertices(), 6, 0.5);
  std::stringstream metis;
  graph::write_metis(g, metis);
  for (int r = 0; r < 2; ++r) {
    metis.clear();
    metis.seekg(0);
    const GraphShard streamed = graph::load_shard(metis, p, r, 2);
    const GraphShard cut = graph::make_shard(g, p, r, 2);
    // Byte-identical shards: same residency, same CSR, same counters.
    EXPECT_EQ(streamed.resident, cut.resident);
    EXPECT_EQ(streamed.owned_parts, cut.owned_parts);
    EXPECT_EQ(streamed.resident_half_edges, cut.resident_half_edges);
    EXPECT_EQ(streamed.halo_half_edges, cut.halo_half_edges);
    EXPECT_EQ(streamed.total_half_edges, cut.total_half_edges);
    ASSERT_EQ(streamed.graph.num_vertices(), cut.graph.num_vertices());
    for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
      const auto a = streamed.graph.neighbors(v);
      const auto b = cut.graph.neighbors(v);
      ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
          << "row mismatch at vertex " << v;
    }
    streamed.graph.validate();  // halo filtering preserved symmetry
  }
}

TEST(Shard, AdjacencyIsActuallySharded) {
  const mesh::MeshSequence seq = mesh::make_small_mesh_sequence(800, {}, 9);
  const Graph& g = seq.graphs[0];
  const Partitioning p =
      graph::contiguous_partitioning(g.num_vertices(), 8, 0.0);
  const int ranks = 4;
  for (int r = 0; r < ranks; ++r) {
    const GraphShard shard = graph::make_shard(g, p, r, ranks);
    // Each rank's resident adjacency is a strict fraction of the whole —
    // the O(E/ranks + boundary) claim, with generous slack for the
    // boundary term on a small mesh.
    EXPECT_LT(shard.resident_half_edges + shard.halo_half_edges,
              shard.total_half_edges * 3 / 4)
        << "rank " << r << " holds most of the graph";
    // Residency invariant: every owned-partition member has its full row.
    for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
      if (shard.owns(p.part[static_cast<std::size_t>(v)])) {
        EXPECT_TRUE(shard.resident[static_cast<std::size_t>(v)] != 0);
      }
    }
  }
}

TEST(Shard, LoaderRejectsRowsThatBreakTheInstall) {
  // A self-loop, and an unsorted row: rows the worker's in-place install
  // (binary search, byte-identical sorted rows) cannot take.
  for (const char* metis : {"2 2\n1 2\n1 2\n", "3 2\n3 2\n1\n1\n"}) {
    std::istringstream is(metis);
    graph::VertexId n = 0;
    is >> n;
    is.seekg(0);
    const Partitioning p = graph::contiguous_partitioning(n, 1);
    EXPECT_THROW((void)graph::load_shard(is, p, 0, 1), CheckError) << metis;
  }
}

TEST(Shard, ContiguousPartitioningTilesAndSkews) {
  const Partitioning even = graph::contiguous_partitioning(100, 7, 0.0);
  const Partitioning skewed = graph::contiguous_partitioning(100, 7, 1.0);
  for (const Partitioning& p : {even, skewed}) {
    EXPECT_EQ(p.part.size(), 100u);
    // Contiguous and non-decreasing, every partition non-empty.
    std::vector<int> counts(7, 0);
    for (std::size_t v = 0; v < p.part.size(); ++v) {
      if (v > 0) {
        EXPECT_GE(p.part[v], p.part[v - 1]);
      }
      ++counts[static_cast<std::size_t>(p.part[v])];
    }
    for (int c : counts) EXPECT_GE(c, 1);
  }
  // skew > 0 makes later ranges bigger: real imbalance for the demo.
  std::vector<int> skew_counts(7, 0);
  for (const graph::PartId q : skewed.part) {
    ++skew_counts[static_cast<std::size_t>(q)];
  }
  EXPECT_GT(skew_counts[6], skew_counts[0]);
}

struct WorkerCase {
  int ranks;
  int parts;
};

class WorkerParity : public ::testing::TestWithParam<WorkerCase> {};

TEST_P(WorkerParity, MatchesReplicatedEngineBitForBit) {
  const WorkerCase param = GetParam();
  const mesh::MeshSequence seq = mesh::make_small_mesh_sequence(
      600, {}, 31 + static_cast<std::uint64_t>(param.ranks));
  const Graph& g = seq.graphs[0];
  const Partitioning initial = graph::contiguous_partitioning(
      g.num_vertices(), param.parts, 0.8);  // skewed: real work to do
  const IgpOptions options = rebalance_options();

  // Oracle: the replicated in-process engine on the full graph.  n_old =
  // |V| makes step 1 a no-op, so both sides run the same pure rebalance.
  MachineExecutor oracle_executor(param.ranks);
  const IgpResult expected = test::spmd_repartition(
      oracle_executor, g, initial, g.num_vertices(), options);

  MachineExecutor worker_executor(param.ranks);
  const auto [actual, stats] =
      run_worker(worker_executor, g, initial, options);

  EXPECT_EQ(expected.partitioning.part, actual.part);
  EXPECT_EQ(expected.balance_result.balanced, stats.balanced);
  EXPECT_EQ(static_cast<int>(expected.balance_result.stages.size()),
            stats.stages);

  // The distributed cut must equal the full-graph metric of the result.
  const auto metrics = graph::compute_metrics(g, actual);
  EXPECT_NEAR(stats.cut, metrics.cut_total, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(RankCounts, WorkerParity,
                         ::testing::Values(WorkerCase{1, 6}, WorkerCase{2, 6},
                                           WorkerCase{2, 8}, WorkerCase{3, 7},
                                           WorkerCase{4, 8}));

TEST(SpmdWorker, TcpLoopbackMatchesInProcess) {
  const mesh::MeshSequence seq = mesh::make_small_mesh_sequence(500, {}, 23);
  const Graph& g = seq.graphs[0];
  const Partitioning initial =
      graph::contiguous_partitioning(g.num_vertices(), 8, 0.8);
  const IgpOptions options = rebalance_options();

  MachineExecutor in_process(3);
  const auto [expected, expected_stats] =
      run_worker(in_process, g, initial, options);

  for (const char* filters : {"", "delta"}) {
    net::TcpOptions tcp;
    tcp.filters = filters;
    TcpLoopbackExecutor executor(3, tcp);
    const auto [actual, stats] = run_worker(executor, g, initial, options);
    EXPECT_EQ(expected.part, actual.part) << "filters=\"" << filters << "\"";
    EXPECT_EQ(expected_stats.stages, stats.stages);
    EXPECT_EQ(expected_stats.cut, stats.cut);
  }
}

TEST(SpmdWorker, MigratedRowsKeepResidencyInvariant) {
  const mesh::MeshSequence seq = mesh::make_small_mesh_sequence(600, {}, 41);
  const Graph& g = seq.graphs[0];
  const Partitioning initial =
      graph::contiguous_partitioning(g.num_vertices(), 8, 1.0);
  const int ranks = 4;
  std::vector<GraphShard> shards;
  for (int r = 0; r < ranks; ++r) {
    shards.push_back(graph::make_shard(g, initial, r, ranks));
  }
  MachineExecutor executor(ranks);
  std::vector<SpmdWorkerStats> stats(ranks);
  executor.run([&](net::Transport& t) {
    stats[static_cast<std::size_t>(t.rank())] = spmd_worker_rebalance(
        t, shards[static_cast<std::size_t>(t.rank())], rebalance_options());
  });
  // A heavily skewed start forces cross-rank moves, so rows migrated.
  std::int64_t moved_rows = 0;
  for (const auto& s : stats) moved_rows += s.rows_migrated;
  EXPECT_GT(stats[0].vertices_moved, 0);
  EXPECT_GT(moved_rows, 0);
  for (int r = 0; r < ranks; ++r) {
    const GraphShard& shard = shards[static_cast<std::size_t>(r)];
    // Installed rows brought their reverse half-edges along: the shard is
    // still a symmetric graph, and its edge counters still add up.
    EXPECT_NO_THROW(shard.graph.validate()) << "rank " << r;
    EXPECT_EQ(shard.resident_half_edges + shard.halo_half_edges,
              shard.graph.num_half_edges())
        << "rank " << r;
    for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
      const graph::PartId q =
          shard.partitioning.part[static_cast<std::size_t>(v)];
      if (!shard.owns(q)) continue;
      ASSERT_NE(shard.resident[static_cast<std::size_t>(v)], 0)
          << "rank " << r << " owns vertex " << v << " without its row";
      // The (possibly migrated) row must equal the vertex's true full row.
      const auto got = shard.graph.neighbors(v);
      const auto want = g.neighbors(v);
      ASSERT_TRUE(
          std::equal(got.begin(), got.end(), want.begin(), want.end()))
          << "migrated row mismatch for vertex " << v;
    }
  }
}

TEST(SpmdWorker, RefusesRefinement) {
  const mesh::MeshSequence seq = mesh::make_small_mesh_sequence(200, {}, 1);
  const Graph& g = seq.graphs[0];
  const Partitioning initial =
      graph::contiguous_partitioning(g.num_vertices(), 4, 0.5);
  GraphShard shard = graph::make_shard(g, initial, 0, 1);
  IgpOptions options;
  options.refine = true;
  MachineExecutor executor(1);
  executor.run([&](net::Transport& t) {
    EXPECT_THROW((void)spmd_worker_rebalance(t, shard, options), CheckError);
  });
}

}  // namespace
}  // namespace pigp::core
