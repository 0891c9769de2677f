// Slotted mutable Graph: O(Δ) mutators, overflow relocation, compaction,
// the abandoned-slot counter, and the vertex keys that compaction carries.

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

#include "graph/builder.hpp"
#include "graph/delta.hpp"
#include "graph/graph.hpp"
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

TEST(MutableGraph, AddVertexAppendsLiveIsolatedId) {
  Graph g = square();
  const VertexId v = g.add_vertex(2.5);
  EXPECT_EQ(v, 4);
  EXPECT_EQ(g.num_vertices(), 5);
  EXPECT_TRUE(g.is_live(v));
  EXPECT_EQ(g.degree(v), 0);
  EXPECT_DOUBLE_EQ(g.vertex_weight(v), 2.5);
  EXPECT_DOUBLE_EQ(g.total_vertex_weight(), 6.5);
  g.validate();
}

TEST(MutableGraph, InsertEdgeIsStructuralOnceThenMerges) {
  Graph g = square();
  EXPECT_TRUE(g.insert_edge(0, 2, 3.0));  // new diagonal
  EXPECT_EQ(g.num_edges(), 5);
  EXPECT_DOUBLE_EQ(g.edge_weight(0, 2), 3.0);
  // Duplicate merges by summing, GraphBuilder-style, and is not structural.
  EXPECT_FALSE(g.insert_edge(2, 0, 1.5));
  EXPECT_EQ(g.num_edges(), 5);
  EXPECT_DOUBLE_EQ(g.edge_weight(0, 2), 4.5);
  EXPECT_DOUBLE_EQ(g.edge_weight(2, 0), 4.5);
  g.validate();
}

TEST(MutableGraph, InsertEdgeKeepsRowsSorted) {
  Graph g(std::vector<EdgeIndex>{0, 0, 0, 0, 0}, {}, {1, 1, 1, 1}, {});
  g.insert_edge(2, 3, 1.0);
  g.insert_edge(2, 0, 1.0);
  g.insert_edge(2, 1, 1.0);
  const auto nbrs = g.neighbors(2);
  ASSERT_EQ(nbrs.size(), 3u);
  EXPECT_EQ(nbrs[0], 0);
  EXPECT_EQ(nbrs[1], 1);
  EXPECT_EQ(nbrs[2], 3);
  g.validate();
}

TEST(MutableGraph, InsertEdgeRejectsBadArguments) {
  Graph g = square();
  EXPECT_THROW(g.insert_edge(0, 0, 1.0), CheckError);   // self-loop
  EXPECT_THROW(g.insert_edge(0, 9, 1.0), CheckError);   // out of range
  EXPECT_THROW(g.insert_edge(0, 1, -1.0), CheckError);  // negative weight
  g.remove_vertex(3);
  EXPECT_THROW(g.insert_edge(0, 3, 1.0), CheckError);  // dead endpoint
}

TEST(MutableGraph, RemoveEdgeReturnsWeight) {
  Graph g = square();
  EXPECT_TRUE(g.insert_edge(0, 2, 7.0));
  EXPECT_DOUBLE_EQ(g.remove_edge(2, 0), 7.0);
  EXPECT_FALSE(g.has_edge(0, 2));
  EXPECT_EQ(g.num_edges(), 4);
  EXPECT_THROW(g.remove_edge(0, 2), CheckError);  // already gone
  g.validate();
}

TEST(MutableGraph, RemoveThenReinsertIsStructuralAgain) {
  Graph g = square();
  g.remove_edge(0, 1);
  EXPECT_TRUE(g.insert_edge(0, 1, 2.0));  // physically removed => new again
  EXPECT_DOUBLE_EQ(g.edge_weight(0, 1), 2.0);
  EXPECT_EQ(g, [] {
    GraphBuilder b(4);
    b.add_edge(0, 1, 2.0);
    b.add_edge(1, 2);
    b.add_edge(2, 3);
    b.add_edge(3, 0);
    return b.build();
  }());
}

TEST(MutableGraph, RemoveVertexTombstonesAndIsolates) {
  Graph g = square();
  g.remove_vertex(1);
  EXPECT_EQ(g.num_vertices(), 4);  // id space does not shrink
  EXPECT_FALSE(g.is_live(1));
  EXPECT_EQ(g.num_dead_vertices(), 1);
  EXPECT_EQ(g.num_live_vertices(), 3);
  EXPECT_EQ(g.degree(1), 0);
  EXPECT_DOUBLE_EQ(g.vertex_weight(1), 0.0);
  EXPECT_DOUBLE_EQ(g.total_vertex_weight(), 3.0);
  // The back half-edges left the neighbors' rows too: nothing reaches 1.
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (const VertexId u : g.neighbors(v)) EXPECT_NE(u, 1);
  }
  EXPECT_EQ(g.num_edges(), 2);  // 2-3 and 3-0 survive
  EXPECT_FALSE(g.has_edge(0, 1));
  g.validate();
}

TEST(MutableGraph, OverflowRelocationPreservesRowAndTracksSlack) {
  // A CSR-built row is tight (cap == len), so the first insert relocates it
  // into the overflow arena; keep inserting well past several doublings.
  GraphBuilder b(66);
  b.add_edge(0, 1);
  Graph g = b.build();
  EXPECT_EQ(g.adjacency_slack(), 0);  // tight after construction
  for (VertexId v = 2; v < 66; ++v) {
    EXPECT_TRUE(g.insert_edge(0, v, static_cast<double>(v)));
  }
  EXPECT_EQ(g.degree(0), 65);
  EXPECT_GT(g.adjacency_slack(), 0);  // garbage + capacity slack appeared
  const auto nbrs = g.neighbors(0);
  const auto ws = g.incident_edge_weights(0);
  for (std::size_t i = 0; i < nbrs.size(); ++i) {
    EXPECT_EQ(nbrs[i], static_cast<VertexId>(i + 1));
    if (i > 0) {
      EXPECT_DOUBLE_EQ(ws[i], static_cast<double>(nbrs[i]));
    }
  }
  g.validate();
}

TEST(MutableGraph, CompactDropsDeadIdsOrderPreserving) {
  Graph g = square();
  g.insert_edge(0, 2, 5.0);
  g.remove_vertex(1);
  std::vector<VertexId> old_to_new;
  const VertexId n = g.compact(old_to_new);
  EXPECT_EQ(n, 3);
  ASSERT_EQ(old_to_new.size(), 4u);
  EXPECT_EQ(old_to_new[0], 0);
  EXPECT_EQ(old_to_new[1], kInvalidVertex);
  EXPECT_EQ(old_to_new[2], 1);
  EXPECT_EQ(old_to_new[3], 2);
  EXPECT_EQ(g.num_dead_vertices(), 0);
  EXPECT_EQ(g.adjacency_slack(), 0);  // rows rebuilt tight
  EXPECT_EQ(g.num_edges(), 3);        // 2-3, 3-0, 0-2 under new ids
  EXPECT_TRUE(g.has_edge(0, 1));      // old 0-2
  EXPECT_DOUBLE_EQ(g.edge_weight(0, 1), 5.0);
  g.validate();
}

TEST(MutableGraph, CompactMatchesFromScratchBuild) {
  Graph g = square();
  g.remove_vertex(0);
  g.add_vertex(1.0);  // id 4
  g.insert_edge(4, 2, 2.0);
  std::vector<VertexId> old_to_new;
  g.compact(old_to_new);
  // Survivors 1,2,3,4 -> 0,1,2,3 with edges 1-2, 2-3, 4-2.
  GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(3, 1, 2.0);
  EXPECT_EQ(g, b.build());
}

TEST(MutableGraph, EqualityIgnoresSlotLayout) {
  // Same semantic graph, radically different slot history.
  Graph a = square();
  Graph b = square();
  b.insert_edge(0, 2, 1.0);  // forces relocation of rows 0 and 2
  b.remove_edge(0, 2);
  EXPECT_GT(b.adjacency_slack(), 0);
  EXPECT_EQ(a, b);
  // Liveness is observable even though a dead vertex has no edges.
  Graph c = square();
  c.remove_vertex(3);
  Graph d = square();
  d.remove_edge(2, 3);
  d.remove_edge(3, 0);
  EXPECT_NE(c, d);
}

TEST(MutableGraph, ValidateCatchesCounterDrift) {
  Graph g = square();
  g.remove_vertex(2);
  g.validate();  // tombstoned state is well-formed
  std::vector<VertexId> old_to_new;
  g.compact(old_to_new);
  g.validate();
}

// adjacency_slack() counts abandoned slots only: the old blocks of
// relocated rows and the rows of removed vertices.  A row's reserve is not
// abandoned.
TEST(MutableGraphSlack, RelocationAbandonsTheOldCapacity) {
  Graph g = square();  // every row tight: len 2, cap 2
  const VertexId v = g.add_vertex(1.0);  // cap 0
  g.insert_edge(0, v, 1.0);  // row 0 moves 2 -> 4, row v 0 -> 4
  EXPECT_EQ(g.adjacency_slack(), 2);
  EXPECT_EQ(g.adjacency_capacity(), 8 + 4 + 4);
  g.insert_edge(0, 2, 1.0);  // row 0 has room; row 2 moves 2 -> 4
  EXPECT_EQ(g.adjacency_slack(), 4);
  g.validate();
}

TEST(MutableGraphSlack, RemoveVertexAbandonsItsRow) {
  Graph g = square();
  g.insert_edge(0, 2, 1.0);  // rows 0 and 2 move 2 -> 4
  ASSERT_EQ(g.adjacency_slack(), 4);
  g.remove_vertex(0);  // its cap-4 row; the neighbours keep theirs
  EXPECT_EQ(g.adjacency_slack(), 8);
  g.remove_vertex(3);  // a tight row of 2
  EXPECT_EQ(g.adjacency_slack(), 10);
  g.validate();
}

TEST(MutableGraphSlack, RemoveEdgeAbandonsNothing) {
  Graph g = square();
  const EdgeIndex capacity = g.adjacency_capacity();
  g.remove_edge(0, 1);
  EXPECT_EQ(g.adjacency_slack(), 0);  // the slots stay in the rows' reserve
  EXPECT_EQ(g.adjacency_capacity(), capacity);
  g.insert_edge(0, 1, 1.0);  // and the reinsert takes them back in place
  EXPECT_EQ(g.adjacency_slack(), 0);
  EXPECT_EQ(g.adjacency_capacity(), capacity);
  g.validate();
}

TEST(MutableGraphSlack, CompactResetsTheCounter) {
  Graph g = square();
  g.insert_edge(0, 2, 1.0);
  g.remove_vertex(1);
  ASSERT_GT(g.adjacency_slack(), 0);
  std::vector<VertexId> old_to_new;
  g.compact(old_to_new);
  EXPECT_EQ(g.adjacency_slack(), 0);
  g.validate();
}

TEST(MutableGraphSlack, CompactedRowKeepsAQuarterInReserve) {
  // Hub 0 has degree 16; vertices 17..21 form a K5, so each has degree 4.
  GraphBuilder b(22);
  for (VertexId v = 1; v <= 16; ++v) b.add_edge(0, v);
  for (VertexId u = 17; u <= 21; ++u) {
    for (VertexId v = u + 1; v <= 21; ++v) b.add_edge(u, v);
  }
  Graph g = b.build();
  std::vector<VertexId> old_to_new;
  g.compact(old_to_new);
  // Rows of degree d hold d + d/4 slots: 20 for the hub, 5 in the K5.
  const EdgeIndex capacity = g.adjacency_capacity();
  EXPECT_EQ(capacity, 20 + 16 * 1 + 5 * 5);
  for (VertexId v = 17; v <= 20; ++v) {  // 16 / 4 inserts, all in place
    g.insert_edge(0, v, 1.0);
    EXPECT_EQ(g.adjacency_capacity(), capacity);
    EXPECT_EQ(g.adjacency_slack(), 0);
  }
  g.insert_edge(0, 21, 1.0);  // the fifth relocates the hub's 20 slots
  EXPECT_EQ(g.adjacency_slack(), 20);
  EXPECT_EQ(g.adjacency_capacity(), capacity + 40);
  g.validate();
}

TEST(MutableGraphKeys, FreshGraphKeysAreIds) {
  const Graph g = square();
  EXPECT_EQ(g.vertex_keys(), (std::vector<std::uint32_t>{0, 1, 2, 3}));
  EXPECT_EQ(g.next_vertex_key(), 4u);
  EXPECT_EQ(Graph().next_vertex_key(), 0u);
}

TEST(MutableGraphKeys, KeysSurviveCompaction) {
  Graph g = square();
  const VertexId added = g.add_vertex(1.0);  // id 4, key 4
  g.insert_edge(added, 1, 1.0);
  g.remove_vertex(0);
  g.remove_vertex(2);
  std::vector<VertexId> old_to_new;
  ASSERT_EQ(g.compact(old_to_new), 3);
  // Survivors 1, 3, 4 become 0, 1, 2 and keep the keys they were born with.
  EXPECT_EQ(g.vertex_keys(), (std::vector<std::uint32_t>{1, 3, 4}));
  EXPECT_EQ(g.next_vertex_key(), 5u);
  g.validate();
}

TEST(MutableGraphKeys, AddAfterCompactionNeverReusesALiveKey) {
  Graph g = square();
  std::vector<VertexId> old_to_new;
  for (int round = 0; round < 4; ++round) {
    g.remove_vertex(0);
    g.compact(old_to_new);
    for (int i = 0; i < 3; ++i) {
      const VertexId v = g.add_vertex(1.0);
      g.insert_edge(v, 0, 1.0);
    }
    std::set<std::uint32_t> live;
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      EXPECT_LT(g.vertex_key(v), g.next_vertex_key());
      EXPECT_TRUE(live.insert(g.vertex_key(v)).second)
          << "key " << g.vertex_key(v) << " reused in round " << round;
    }
  }
  // The ids were recycled down to [0, n); the keys only ever grew.
  EXPECT_EQ(g.num_vertices(), 12);
  EXPECT_EQ(g.next_vertex_key(), 16u);
}

TEST(MutableGraphKeys, CopiesCarryKeys) {
  Graph g = square();
  g.remove_vertex(1);
  std::vector<VertexId> old_to_new;
  g.compact(old_to_new);
  g.add_vertex(2.0);
  const Graph copy = g;
  EXPECT_EQ(copy.vertex_keys(), g.vertex_keys());
  EXPECT_EQ(copy.next_vertex_key(), g.next_vertex_key());
  Graph assigned;
  assigned = g;
  EXPECT_EQ(assigned.vertex_keys(), (std::vector<std::uint32_t>{0, 2, 3, 4}));
  EXPECT_EQ(assigned.next_vertex_key(), 5u);
}

/// \p delta applied in place: removals, additions (taking ids after the
/// current id space, as the delta numbers them), added edges, compact().
void apply_in_place(Graph& g, const GraphDelta& delta) {
  for (const auto& [u, v] : delta.removed_edges) g.remove_edge(u, v);
  for (const VertexId v : delta.removed_vertices) g.remove_vertex(v);
  for (const VertexAddition& add : delta.added_vertices) {
    const VertexId self = g.add_vertex(add.weight);
    for (const auto& [u, w] : add.edges) g.insert_edge(self, u, w);
  }
  for (const auto& [u, v] : delta.added_edges) g.insert_edge(u, v, 1.0);
  std::vector<VertexId> old_to_new;
  g.compact(old_to_new);
}

TEST(MutableGraphKeys, ApplyDeltaGivesTheMutablePathsKeys) {
  GraphBuilder b(8);
  for (VertexId v = 0; v < 8; ++v) b.add_edge(v, (v + 1) % 8);
  Graph rebuilt = b.build();
  Graph mutated = rebuilt;
  // Two rounds, so the second delta starts from keys that are not ids.
  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE(round);
    GraphDelta delta;
    delta.removed_vertices = {1, 4};
    // The first edge whose endpoints both survive.
    for (VertexId u = 0; delta.removed_edges.empty(); ++u) {
      for (const VertexId v : rebuilt.neighbors(u)) {
        if (u != 1 && u != 4 && v != 1 && v != 4) {
          delta.removed_edges = {{u, v}};
          break;
        }
      }
    }
    const VertexId n = rebuilt.num_vertices();
    delta.added_vertices.push_back({1.0, {{0, 1.0}, {2, 1.0}}});
    delta.added_vertices.push_back({1.0, {{n, 1.0}, {6, 1.0}}});
    delta.added_edges = {{3, n + 1}};
    rebuilt = apply_delta(rebuilt, delta).graph;
    apply_in_place(mutated, delta);
    EXPECT_EQ(rebuilt, mutated);
    EXPECT_EQ(rebuilt.vertex_keys(), mutated.vertex_keys());
    EXPECT_EQ(rebuilt.next_vertex_key(), mutated.next_vertex_key());
    rebuilt.validate();
  }
  EXPECT_EQ(rebuilt.vertex_keys(),
            (std::vector<std::uint32_t>{0, 3, 5, 7, 8, 9, 10, 11}));
  EXPECT_EQ(rebuilt.next_vertex_key(), 12u);
}

TEST(MutableGraphKeys, ValidateRejectsAKeyArrayOfTheWrongSize) {
  Graph g = square();
  g.set_vertex_keys({0, 1, 2}, 4);
  EXPECT_THROW(g.validate(), CheckError);
  g.set_vertex_keys({0, 1, 2, 3, 4}, 5);
  EXPECT_THROW(g.validate(), CheckError);
  g.set_vertex_keys({7, 1, 2, 3}, 8);
  g.validate();
  EXPECT_EQ(g.vertex_key(0), 7u);
}

}  // namespace
}  // namespace pigp::graph
