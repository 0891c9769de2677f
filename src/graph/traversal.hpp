#pragma once

/// \file traversal.hpp
/// Breadth-first traversals: distances and BFS vertex orders.  These
/// implement the d(v, x) shortest-distance machinery of §2.1/§2.2 of the
/// paper.

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace pigp::graph {

inline constexpr std::int32_t kUnreached = -1;

/// Unweighted BFS distances from a set of sources; kUnreached for vertices in
/// other components.
[[nodiscard]] std::vector<std::int32_t> bfs_distances(
    const Graph& g, std::span<const VertexId> sources);

/// Vertices of \p g in BFS order from \p root (used by recursive graph
/// bisection and pseudo-peripheral vertex search).  Only the component of
/// \p root is visited.
[[nodiscard]] std::vector<VertexId> bfs_order(const Graph& g, VertexId root);

/// A vertex approximately maximizing eccentricity in root's component,
/// found by repeated BFS (standard pseudo-peripheral heuristic).
[[nodiscard]] VertexId pseudo_peripheral_vertex(const Graph& g, VertexId root);

}  // namespace pigp::graph
