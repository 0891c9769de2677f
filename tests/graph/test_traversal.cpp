// BFS distances, BFS orders, pseudo-peripheral vertices.

#include "graph/traversal.hpp"

#include <gtest/gtest.h>

#include "graph/builder.hpp"
#include "graph/generators.hpp"

namespace pigp::graph {
namespace {

TEST(BfsDistances, PathGraph) {
  const Graph g = path_graph(5);
  const std::vector<VertexId> sources = {0};
  const auto dist = bfs_distances(g, sources);
  for (int v = 0; v < 5; ++v) {
    EXPECT_EQ(dist[static_cast<std::size_t>(v)], v);
  }
}

TEST(BfsDistances, MultiSourceTakesMinimum) {
  const Graph g = path_graph(7);
  const std::vector<VertexId> sources = {0, 6};
  const auto dist = bfs_distances(g, sources);
  EXPECT_EQ(dist[0], 0);
  EXPECT_EQ(dist[3], 3);
  EXPECT_EQ(dist[6], 0);
  EXPECT_EQ(dist[5], 1);
}

TEST(BfsDistances, UnreachableVerticesStayMarked) {
  GraphBuilder b(4);
  b.add_edge(0, 1);  // 2, 3 isolated
  const Graph g = b.build();
  const std::vector<VertexId> sources = {0};
  const auto dist = bfs_distances(g, sources);
  EXPECT_EQ(dist[2], kUnreached);
  EXPECT_EQ(dist[3], kUnreached);
}

TEST(BfsDistances, GridDistanceIsManhattanFromCorner) {
  const int n = 8;
  const Graph g = grid_graph(n, n);
  const std::vector<VertexId> sources = {0};
  const auto dist = bfs_distances(g, sources);
  for (int r = 0; r < n; ++r) {
    for (int c = 0; c < n; ++c) {
      EXPECT_EQ(dist[static_cast<std::size_t>(r * n + c)], r + c);
    }
  }
}

TEST(BfsOrder, VisitsComponentInBreadthOrder) {
  const Graph g = path_graph(5);
  const auto order = bfs_order(g, 2);
  ASSERT_EQ(order.size(), 5u);
  EXPECT_EQ(order[0], 2);
  // Levels: {2}, {1,3}, {0,4}.
  EXPECT_TRUE((order[1] == 1 && order[2] == 3) ||
              (order[1] == 3 && order[2] == 1));
}

TEST(BfsOrder, RestrictedToComponent) {
  GraphBuilder b(5);
  b.add_edge(0, 1);
  b.add_edge(2, 3);
  const Graph g = b.build();
  EXPECT_EQ(bfs_order(g, 0).size(), 2u);
  EXPECT_EQ(bfs_order(g, 2).size(), 2u);
  EXPECT_EQ(bfs_order(g, 4).size(), 1u);
}

TEST(PseudoPeripheral, PathEndsArePeripheral) {
  const Graph g = path_graph(21);
  const VertexId v = pseudo_peripheral_vertex(g, 10);
  EXPECT_TRUE(v == 0 || v == 20);
}

TEST(PseudoPeripheral, GridCornerFound) {
  const Graph g = grid_graph(9, 9);
  const VertexId v = pseudo_peripheral_vertex(g, 40);  // center
  // Must land on one of the four corners.
  EXPECT_TRUE(v == 0 || v == 8 || v == 72 || v == 80);
}

}  // namespace
}  // namespace pigp::graph
