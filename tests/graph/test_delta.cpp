// GraphDelta application: additions, deletions, remapping, error handling.

#include "graph/delta.hpp"

#include <gtest/gtest.h>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "support/check.hpp"

namespace pigp::graph {
namespace {

Graph square() {
  GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 3);
  b.add_edge(3, 0);
  return b.build();
}

TEST(GraphDelta, AddVertexWithEdges) {
  GraphDelta delta;
  delta.added_vertices.push_back({1.0, {{0, 1.0}, {2, 1.0}}});
  const DeltaResult r = apply_delta(square(), delta);

  EXPECT_EQ(r.graph.num_vertices(), 5);
  EXPECT_EQ(r.graph.num_edges(), 6);
  EXPECT_EQ(r.first_new_vertex, 4);
  ASSERT_EQ(r.new_vertex_ids.size(), 1u);
  EXPECT_TRUE(r.graph.has_edge(r.new_vertex_ids[0], 0));
  EXPECT_TRUE(r.graph.has_edge(r.new_vertex_ids[0], 2));
  r.graph.validate();
}

TEST(GraphDelta, NewVerticesMayReferenceEachOther) {
  GraphDelta delta;
  delta.added_vertices.push_back({1.0, {{0, 1.0}}});
  delta.added_vertices.push_back({1.0, {{4, 1.0}}});  // edge to first new one
  const DeltaResult r = apply_delta(square(), delta);
  EXPECT_EQ(r.graph.num_vertices(), 6);
  EXPECT_TRUE(r.graph.has_edge(r.new_vertex_ids[0], r.new_vertex_ids[1]));
}

TEST(GraphDelta, ForwardReferenceRejected) {
  GraphDelta delta;
  delta.added_vertices.push_back({1.0, {{5, 1.0}}});  // references 2nd new
  delta.added_vertices.push_back({1.0, {}});
  EXPECT_THROW(apply_delta(square(), delta), CheckError);
}

TEST(GraphDelta, RemoveVertexCompactsIds) {
  GraphDelta delta;
  delta.removed_vertices.push_back(1);
  const DeltaResult r = apply_delta(square(), delta);

  EXPECT_EQ(r.graph.num_vertices(), 3);
  EXPECT_EQ(r.graph.num_edges(), 2);  // edges 0-1 and 1-2 died
  EXPECT_EQ(r.old_to_new[0], 0);
  EXPECT_EQ(r.old_to_new[1], kInvalidVertex);
  EXPECT_EQ(r.old_to_new[2], 1);
  EXPECT_EQ(r.old_to_new[3], 2);
  r.graph.validate();
}

TEST(GraphDelta, RemoveEdge) {
  GraphDelta delta;
  delta.removed_edges.push_back({0, 1});
  const DeltaResult r = apply_delta(square(), delta);
  EXPECT_EQ(r.graph.num_edges(), 3);
  EXPECT_FALSE(r.graph.has_edge(0, 1));
}

TEST(GraphDelta, RemoveMissingEdgeRejected) {
  GraphDelta delta;
  delta.removed_edges.push_back({0, 2});  // diagonal doesn't exist
  EXPECT_THROW(apply_delta(square(), delta), CheckError);
}

TEST(GraphDelta, AddedEdgeBetweenOldVertices) {
  GraphDelta delta;
  delta.added_edges.push_back({0, 2});
  const DeltaResult r = apply_delta(square(), delta);
  EXPECT_TRUE(r.graph.has_edge(0, 2));
  EXPECT_EQ(r.graph.num_edges(), 5);
}

TEST(GraphDelta, EdgeToRemovedVertexRejected) {
  GraphDelta delta;
  delta.removed_vertices.push_back(0);
  delta.added_edges.push_back({0, 2});
  EXPECT_THROW(apply_delta(square(), delta), CheckError);
}

TEST(GraphDelta, MixedAddRemove) {
  GraphDelta delta;
  delta.removed_vertices.push_back(3);
  delta.added_vertices.push_back({2.0, {{0, 1.0}, {2, 1.0}}});
  const DeltaResult r = apply_delta(square(), delta);

  EXPECT_EQ(r.graph.num_vertices(), 4);
  // Old edges 2-3, 3-0 removed; new vertex adds two.
  EXPECT_EQ(r.graph.num_edges(), 4);
  EXPECT_DOUBLE_EQ(r.graph.vertex_weight(r.new_vertex_ids[0]), 2.0);
  r.graph.validate();
}

TEST(GraphDelta, SequentialDeltasComposeLikeOneBigDelta) {
  const Graph base = grid_graph(6, 6);

  // Two-step: add vertex A attached to 0, then vertex B attached to A and 1.
  GraphDelta d1;
  d1.added_vertices.push_back({1.0, {{0, 1.0}}});
  const DeltaResult r1 = apply_delta(base, d1);
  GraphDelta d2;
  d2.added_vertices.push_back({1.0, {{r1.new_vertex_ids[0], 1.0}, {1, 1.0}}});
  const DeltaResult r2 = apply_delta(r1.graph, d2);

  // One-step: both vertices at once.
  GraphDelta combined;
  combined.added_vertices.push_back({1.0, {{0, 1.0}}});
  combined.added_vertices.push_back(
      {1.0, {{base.num_vertices(), 1.0}, {1, 1.0}}});
  const DeltaResult rc = apply_delta(base, combined);

  EXPECT_EQ(r2.graph, rc.graph);
}

TEST(GraphDelta, EmptyDeltaIsIdentity) {
  const Graph base = square();
  const DeltaResult r = apply_delta(base, GraphDelta{});
  EXPECT_EQ(r.graph, base);
  EXPECT_EQ(r.first_new_vertex, base.num_vertices());
}

TEST(GraphDelta, AppendOnlyFastPathMatchesBuilderReconstruction) {
  // The no-removals fast path merges into the old CSR instead of
  // rebuilding; the result must be indistinguishable from pushing the old
  // graph plus the delta through GraphBuilder (the general path's engine).
  const Graph base = random_geometric_graph(180, 0.12, 55);
  GraphDelta delta;
  // New vertices with weighted edges to old anchors and a new-new chain.
  delta.added_vertices.push_back({2.0, {{3, 2.0}, {77, 1.0}}});
  delta.added_vertices.push_back({1.0, {{180, 3.0}, {12, 1.0}}});
  delta.added_vertices.push_back({3.0, {{181, 1.0}}});
  // Old-old edge, duplicate listing (merges), old-new edge, and a
  // duplicate of an edge the graph already has (merges with it).
  VertexId non_neighbor = 9;
  while (base.has_edge(5, non_neighbor)) ++non_neighbor;
  delta.added_edges = {{5, non_neighbor}, {5, non_neighbor}, {40, 182}};
  delta.added_edge_weights = {2.0, 3.0, 1.0};
  const VertexId anchor_existing = base.neighbors(7).front();
  delta.added_edges.emplace_back(7, anchor_existing);
  delta.added_edge_weights.push_back(4.0);

  const DeltaResult fast = apply_delta(base, delta);
  fast.graph.validate();

  GraphBuilder builder(base.num_vertices());
  for (VertexId v = 0; v < base.num_vertices(); ++v) {
    builder.set_vertex_weight(v, base.vertex_weight(v));
    for (std::size_t i = 0; i < base.neighbors(v).size(); ++i) {
      if (base.neighbors(v)[i] > v) {
        builder.add_edge(v, base.neighbors(v)[i],
                         base.incident_edge_weights(v)[i]);
      }
    }
  }
  for (const auto& add : delta.added_vertices) {
    const VertexId id = builder.add_vertex(add.weight);
    for (const auto& [endpoint, w] : add.edges) {
      builder.add_edge(id, endpoint, w);
    }
  }
  for (std::size_t i = 0; i < delta.added_edges.size(); ++i) {
    builder.add_edge(delta.added_edges[i].first, delta.added_edges[i].second,
                     delta.added_edge_weights[i]);
  }
  EXPECT_EQ(fast.graph, builder.build());
  EXPECT_EQ(fast.first_new_vertex, base.num_vertices());
  EXPECT_EQ(fast.old_to_new[42], 42);
  EXPECT_DOUBLE_EQ(fast.graph.edge_weight(5, non_neighbor),
                   5.0);  // 2 + 3 merged
  EXPECT_DOUBLE_EQ(
      fast.graph.edge_weight(7, anchor_existing),
      base.edge_weight(7, anchor_existing) + 4.0);  // merged onto existing
}

TEST(GraphDelta, AppendOnlyFastPathValidatesLikeTheGeneralPath) {
  const Graph base = square();
  {
    GraphDelta bad;  // forward reference
    bad.added_vertices.push_back({1.0, {{5, 1.0}}});
    bad.added_vertices.push_back({1.0, {}});
    EXPECT_THROW(apply_delta(base, bad), CheckError);
  }
  {
    GraphDelta bad;  // self-loop via added_edges
    bad.added_edges.push_back({2, 2});
    EXPECT_THROW(apply_delta(base, bad), CheckError);
  }
  {
    GraphDelta bad;  // out-of-range endpoint
    bad.added_edges.push_back({0, 4});
    EXPECT_THROW(apply_delta(base, bad), CheckError);
  }
  {
    GraphDelta bad;  // weights not parallel
    bad.added_edges.push_back({0, 2});
    bad.added_edge_weights = {1.0, 2.0};
    EXPECT_THROW(apply_delta(base, bad), CheckError);
  }
}

TEST(GraphDelta, DuplicateEdgeDedupIdenticalOnFastAndRebuildPaths) {
  // Regression: the append fast path and the removal-triggered rebuild
  // path must resolve duplicate added_edges identically — every listing of
  // {u, v} merges by summing, whether or not the delta also removes
  // something (which historically routed it through a different engine).
  const Graph base = grid_graph(5, 5);
  GraphDelta fast_delta;
  fast_delta.added_edges = {{0, 6}, {6, 0}, {0, 6}};  // triple-listed
  fast_delta.added_edge_weights = {1.0, 2.0, 4.0};
  const DeltaResult fast = apply_delta(base, fast_delta);
  EXPECT_DOUBLE_EQ(fast.graph.edge_weight(0, 6), 7.0);

  GraphDelta rebuild_delta = fast_delta;
  rebuild_delta.removed_vertices.push_back(24);  // forces the rebuild path
  const DeltaResult rebuilt = apply_delta(base, rebuild_delta);
  EXPECT_DOUBLE_EQ(rebuilt.graph.edge_weight(0, 6), 7.0);

  // And a duplicate of a pre-existing edge merges onto it on both paths.
  GraphDelta merge_delta;
  merge_delta.added_edges = {{0, 1}};
  merge_delta.added_edge_weights = {3.0};
  EXPECT_DOUBLE_EQ(apply_delta(base, merge_delta).graph.edge_weight(0, 1),
                   base.edge_weight(0, 1) + 3.0);
  merge_delta.removed_vertices.push_back(24);
  EXPECT_DOUBLE_EQ(apply_delta(base, merge_delta).graph.edge_weight(0, 1),
                   base.edge_weight(0, 1) + 3.0);
}

TEST(GraphDelta, NegativeEdgeWeightRejectedOnBothPaths) {
  // Regression: the rebuild path used to accept negative added-edge
  // weights that the append fast path rejected.  validate_delta is now the
  // single shared rule-set.
  const Graph base = square();
  GraphDelta bad;
  bad.added_edges = {{0, 2}};
  bad.added_edge_weights = {-1.0};
  EXPECT_THROW(apply_delta(base, bad), CheckError);  // fast path
  bad.removed_edges.push_back({0, 1});
  EXPECT_THROW(apply_delta(base, bad), CheckError);  // rebuild path
  GraphDelta bad_vertex;
  bad_vertex.added_vertices.push_back({1.0, {{0, -2.0}}});
  bad_vertex.removed_edges.push_back({0, 1});
  EXPECT_THROW(apply_delta(base, bad_vertex), CheckError);
}

TEST(GraphDelta, ValidateDeltaLeavesGraphUntouchedOnRejection) {
  const Graph base = square();
  GraphDelta bad;
  bad.removed_vertices.push_back(1);
  bad.removed_edges.push_back({0, 2});  // does not exist — rejected
  EXPECT_THROW(validate_delta(base, bad), CheckError);
  EXPECT_THROW(apply_delta(base, bad), CheckError);
  EXPECT_EQ(base, square());  // strong guarantee: nothing half-applied

  GraphDelta good;
  good.removed_vertices.push_back(1);
  good.added_edges.push_back({0, 2});
  validate_delta(base, good);  // must not throw
}

TEST(GraphDelta, ApplyDeltaRequiresCompactedGraph) {
  Graph dirty = square();
  dirty.remove_vertex(2);  // tombstone, no compaction
  GraphDelta delta;
  delta.added_edges.push_back({0, 1});
  EXPECT_THROW(apply_delta(dirty, delta), CheckError);
  std::vector<VertexId> old_to_new;
  dirty.compact(old_to_new);
  // The compacted graph is accepted again.
  const DeltaResult result = apply_delta(dirty, delta);
  EXPECT_TRUE(result.graph.has_edge(0, 1));
}

}  // namespace
}  // namespace pigp::graph
