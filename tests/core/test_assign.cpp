// Step 1: initial assignment of new vertices (§2.1), checked against an
// eq. (7) oracle built on bfs_distances.

#include "core/assign.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/workspace.hpp"
#include "graph/builder.hpp"
#include "graph/delta.hpp"
#include "graph/generators.hpp"
#include "graph/partition_state.hpp"
#include "graph/traversal.hpp"
#include "support/check.hpp"

namespace pigp::core {
namespace {

using graph::Graph;
using graph::GraphBuilder;
using graph::PartId;
using graph::Partitioning;
using graph::VertexId;

TEST(ExtendAssignment, OldVerticesKeepTheirPartitions) {
  const Graph g = graph::path_graph(6);
  Partitioning old_p;
  old_p.num_parts = 2;
  old_p.part = {0, 0, 0, 1, 1, 1};
  const Partitioning p = extend_assignment(g, old_p, 6);
  EXPECT_EQ(p.part, old_p.part);
}

TEST(ExtendAssignment, NewVertexJoinsNearestOldPartition) {
  // Path 0-1-2-3 partitioned {0,0 | 1,1}; append 4 attached to 3.
  GraphBuilder b(5);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 3);
  b.add_edge(3, 4);
  const Graph g = b.build();
  Partitioning old_p;
  old_p.num_parts = 2;
  old_p.part = {0, 0, 1, 1};
  const Partitioning p = extend_assignment(g, old_p, 4);
  EXPECT_EQ(p.part[4], 1);
}

TEST(ExtendAssignment, ChainOfNewVerticesPropagates) {
  // New vertices 3 - 4 - 5 hang off old vertex 2 (partition 1): all new
  // vertices are closest to partition 1.
  GraphBuilder b(6);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 3);
  b.add_edge(3, 4);
  b.add_edge(4, 5);
  const Graph g = b.build();
  Partitioning old_p;
  old_p.num_parts = 2;
  old_p.part = {0, 0, 1};
  const Partitioning p = extend_assignment(g, old_p, 3);
  EXPECT_EQ(p.part[3], 1);
  EXPECT_EQ(p.part[4], 1);
  EXPECT_EQ(p.part[5], 1);
}

TEST(ExtendAssignment, EquidistantTieGoesToSmallerPartition) {
  // New vertex 2 adjacent to old 0 (part 1) and old 1 (part 0): both at
  // distance 1; deterministic rule picks the smaller partition id.
  GraphBuilder b(3);
  b.add_edge(0, 2);
  b.add_edge(1, 2);
  const Graph g = b.build();
  Partitioning old_p;
  old_p.num_parts = 2;
  old_p.part = {1, 0};
  const Partitioning p = extend_assignment(g, old_p, 2);
  EXPECT_EQ(p.part[2], 0);
}

TEST(ExtendAssignment, DisconnectedClusterGoesToLightestPartition) {
  // Old: 0 (part 0), 1 (part 1), 2 (part 1).  New: isolated pair {3,4}.
  GraphBuilder b(5);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(3, 4);  // disconnected from the old graph
  const Graph g = b.build();
  Partitioning old_p;
  old_p.num_parts = 2;
  old_p.part = {0, 1, 1};
  const Partitioning p = extend_assignment(g, old_p, 3);
  // Partition 0 has weight 1 vs partition 1's 2: the cluster goes to 0.
  EXPECT_EQ(p.part[3], 0);
  EXPECT_EQ(p.part[4], 0);
}

TEST(ExtendAssignment, MultipleClustersBalanceGreedily) {
  GraphBuilder b(6);
  b.add_edge(0, 1);   // old, parts 0 and 1
  b.add_edge(2, 3);   // new cluster A
  b.add_edge(4, 5);   // new cluster B
  const Graph g = b.build();
  Partitioning old_p;
  old_p.num_parts = 2;
  old_p.part = {0, 1};
  const Partitioning p = extend_assignment(g, old_p, 2);
  // Each partition should receive one cluster.
  EXPECT_NE(p.part[2], p.part[4]);
  EXPECT_EQ(p.part[2], p.part[3]);
  EXPECT_EQ(p.part[4], p.part[5]);
}

/// Eq. (7) read literally, independent of the step-1 implementation: an
/// appended vertex takes the smallest partition among the old vertices at
/// minimum BFS distance from it.  Appended vertices that reach no old
/// vertex form orphan clusters (their connected components); the clusters,
/// in ascending order of their smallest id, go greedily to the
/// least-loaded partition, the smaller id on load ties.
std::vector<PartId> eq7_oracle(const Graph& g, const Partitioning& old_p,
                               VertexId n_old) {
  const VertexId n = g.num_vertices();
  std::vector<PartId> part = old_p.part;
  part.resize(static_cast<std::size_t>(n), graph::kUnassigned);
  std::vector<std::vector<VertexId>> clusters;
  std::vector<char> clustered(static_cast<std::size_t>(n), 0);
  for (VertexId v = n_old; v < n; ++v) {
    const auto vi = static_cast<std::size_t>(v);
    const std::vector<VertexId> source = {v};
    const std::vector<std::int32_t> dist = graph::bfs_distances(g, source);
    std::int32_t nearest = graph::kUnreached;
    for (VertexId x = 0; x < n_old; ++x) {
      const std::int32_t d = dist[static_cast<std::size_t>(x)];
      const PartId label = old_p.part[static_cast<std::size_t>(x)];
      if (d == graph::kUnreached) continue;
      if (nearest == graph::kUnreached || d < nearest ||
          (d == nearest && label < part[vi])) {
        nearest = d;
        part[vi] = label;
      }
    }
    if (nearest != graph::kUnreached || clustered[vi] != 0) continue;
    // v's whole component is appended: one orphan cluster.
    clusters.emplace_back();
    for (VertexId u = 0; u < n; ++u) {
      if (dist[static_cast<std::size_t>(u)] == graph::kUnreached) continue;
      clusters.back().push_back(u);
      clustered[static_cast<std::size_t>(u)] = 1;
    }
  }

  std::vector<double> load(static_cast<std::size_t>(old_p.num_parts), 0.0);
  for (VertexId v = 0; v < n; ++v) {
    const PartId q = part[static_cast<std::size_t>(v)];
    if (q != graph::kUnassigned) {
      load[static_cast<std::size_t>(q)] += g.vertex_weight(v);
    }
  }
  for (const std::vector<VertexId>& cluster : clusters) {
    std::size_t lightest = 0;
    for (std::size_t q = 1; q < load.size(); ++q) {
      if (load[q] < load[lightest]) lightest = q;
    }
    for (const VertexId u : cluster) {
      part[static_cast<std::size_t>(u)] = static_cast<PartId>(lightest);
      load[lightest] += g.vertex_weight(u);
    }
  }
  return part;
}

/// Run the in-place path from the mid-update state shape Session::apply
/// hands a backend (old prefix assigned, appended tail unassigned), built
/// by retiring the tail of \p full one vertex at a time.  Checks that the
/// state ends equal to a fresh rebuild and returns the placements.
std::vector<PartId> place_in_place(const Graph& g, VertexId n_old,
                                   const Partitioning& full, Workspace& ws) {
  graph::PartitionState state(g, full);
  Partitioning working = full;
  for (VertexId v = g.num_vertices() - 1; v >= n_old; --v) {
    state.move_vertex(g, working, v, graph::kUnassigned);
  }
  working.part.resize(static_cast<std::size_t>(n_old));

  extend_assignment_state(g, working, n_old, state, ws);

  const graph::PartitionState fresh(g, working);
  EXPECT_EQ(state.weights(), fresh.weights());
  EXPECT_DOUBLE_EQ(state.cut_total(), fresh.cut_total());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(state.external_degree(v), fresh.external_degree(v))
        << "vertex " << v;
  }
  return working.part;
}

/// Both step-1 entry points — the in-place path on a Session-shaped state
/// and the batch adapter — place every appended vertex as eq. (7) says,
/// across graph shapes, old/new splits, and a reused workspace (the hot
/// configuration: one Workspace across many calls).
TEST(ExtendAssignmentState, MatchesBatchAssignmentOnRandomGraphs) {
  Workspace ws;  // deliberately shared across all cases: reuse is the point
  for (const int seed : {3, 11, 29, 57}) {
    for (const int n_old_permille : {500, 900, 990}) {
      const Graph g = graph::random_geometric_graph(
          600, 0.06, static_cast<std::uint64_t>(seed));
      const auto n_old = static_cast<VertexId>(
          static_cast<std::int64_t>(g.num_vertices()) * n_old_permille /
          1000);
      Partitioning old_p;
      old_p.num_parts = 8;
      for (VertexId v = 0; v < n_old; ++v) {
        old_p.part.push_back((v * 7 + seed) % 8);
      }

      Partitioning expected;
      expected.num_parts = old_p.num_parts;
      expected.part = eq7_oracle(g, old_p, n_old);

      EXPECT_EQ(place_in_place(g, n_old, expected, ws), expected.part)
          << "seed " << seed << " n_old " << n_old;
      EXPECT_EQ(extend_assignment(g, old_p, n_old).part, expected.part)
          << "seed " << seed << " n_old " << n_old;
    }
  }
}

TEST(ExtendAssignmentState, OrphanClustersMatchBatchFallback) {
  // Old: a triangle split 2/1; appended: a chain reaching it plus an
  // isolated pair (the orphan cluster the BFS can never reach).
  GraphBuilder b(8);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(0, 2);
  b.add_edge(2, 3);  // chain into the appended tail
  b.add_edge(3, 4);
  b.add_edge(5, 6);  // orphan component
  b.add_edge(6, 7);
  const Graph g = b.build();
  Partitioning old_p;
  old_p.num_parts = 2;
  old_p.part = {0, 0, 1};

  Partitioning expected;
  expected.num_parts = old_p.num_parts;
  expected.part = eq7_oracle(g, old_p, 3);
  // The chain follows vertex 2 into partition 1 (load 3 against 2), so
  // the orphan cluster goes to partition 0.
  ASSERT_EQ(expected.part, (std::vector<PartId>{0, 0, 1, 1, 1, 0, 0, 0}));

  Workspace ws;
  EXPECT_EQ(place_in_place(g, 3, expected, ws), expected.part);
  EXPECT_EQ(extend_assignment(g, old_p, 3).part, expected.part);
}

TEST(ExtendAssignmentState, OrphanClustersWeighNonIntegerLoads) {
  // Old path 0-1-2 in partitions 0, 1, 2; appended vertex 3 hangs off 1.
  // Three orphan clusters follow: {4, 5}, {6}, {7, 8}.  The weights make
  // the greedy order depend on weight, not vertex count.
  GraphBuilder b(9);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(1, 3);
  b.add_edge(4, 5);
  b.add_edge(7, 8);
  const double weight[] = {1.5, 1.25, 2.0, 0.75, 0.5, 0.25, 1.0, 0.125, 0.25};
  for (VertexId v = 0; v < 9; ++v) {
    b.set_vertex_weight(v, weight[v]);
  }
  const Graph g = b.build();
  Partitioning old_p;
  old_p.num_parts = 3;
  old_p.part = {0, 1, 2};

  Partitioning expected;
  expected.num_parts = old_p.num_parts;
  expected.part = eq7_oracle(g, old_p, 3);
  // Loads before the orphans: 1.5, 2.0, 2.0.  {4, 5} (0.75) goes to 0
  // (now 2.25); {6} (1.0) to 1, the smaller id of the 2.0 tie (now 3.0);
  // {7, 8} (0.375) to 2.
  ASSERT_EQ(expected.part, (std::vector<PartId>{0, 1, 2, 1, 0, 0, 1, 2, 2}));

  Workspace ws;
  EXPECT_EQ(place_in_place(g, 3, expected, ws), expected.part);
  EXPECT_EQ(extend_assignment(g, old_p, 3).part, expected.part);
}

TEST(ExtendAssignmentState, NoAppendedTailIsANoOp) {
  const Graph g = graph::path_graph(6);
  Partitioning p;
  p.num_parts = 2;
  p.part = {0, 0, 0, 1, 1, 1};
  graph::PartitionState state(g, p);
  const auto weights_before = state.weights();
  Workspace ws;
  extend_assignment_state(g, p, 6, state, ws);
  EXPECT_EQ(p.part, (std::vector<graph::PartId>{0, 0, 0, 1, 1, 1}));
  EXPECT_EQ(state.weights(), weights_before);
}

TEST(ExtendAssignment, RejectsEmptyOldSet) {
  const Graph g = graph::path_graph(3);
  Partitioning old_p;
  old_p.num_parts = 2;
  EXPECT_THROW(extend_assignment(g, old_p, 0), CheckError);
}

TEST(ExtendAssignment, RejectsMismatchedSizes) {
  const Graph g = graph::path_graph(5);
  Partitioning old_p;
  old_p.num_parts = 2;
  old_p.part = {0, 1};  // claims 2 old vertices
  EXPECT_THROW(extend_assignment(g, old_p, 3), CheckError);
}

}  // namespace
}  // namespace pigp::core
