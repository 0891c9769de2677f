#pragma once

// The inputs of the refinement golden table (tests/core/test_refine.cpp),
// shared with the solver differential test (tests/lp/test_network_flow.cpp),
// which solves the refinement flows they produce with the network simplex
// and the reference simplex.

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/refine.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/partition.hpp"
#include "support/rng.hpp"

namespace pigp::core::golden {

using graph::Graph;
using graph::Partitioning;
using graph::VertexId;

/// Preferential attachment (Barabási–Albert): every new vertex links to
/// \p m distinct earlier endpoints drawn proportionally to degree, so a few
/// early vertices become hubs.
inline Graph hub_graph(int n, int m, std::uint64_t seed) {
  pigp::SplitMix64 rng(seed);
  graph::GraphBuilder b(n);
  std::vector<VertexId> ends;
  for (int v = 1; v <= m && v < n; ++v) {
    b.add_edge(v, 0);
    ends.push_back(v);
    ends.push_back(0);
  }
  for (int v = m + 1; v < n; ++v) {
    std::vector<VertexId> picked;
    while (static_cast<int>(picked.size()) < m) {
      const VertexId u = ends[rng.next_below(ends.size())];
      if (std::find(picked.begin(), picked.end(), u) == picked.end()) {
        picked.push_back(u);
      }
    }
    for (const VertexId u : picked) {
      b.add_edge(v, u);
      ends.push_back(v);
      ends.push_back(u);
    }
  }
  return b.build();
}

/// Random balanced k-way assignment (shuffled stripes).
inline Partitioning shuffled_partitioning(VertexId n, graph::PartId k,
                                          std::uint64_t seed) {
  pigp::SplitMix64 rng(seed);
  std::vector<VertexId> order(static_cast<std::size_t>(n));
  for (VertexId v = 0; v < n; ++v) order[static_cast<std::size_t>(v)] = v;
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.next_below(i)]);
  }
  Partitioning p;
  p.num_parts = k;
  p.part.resize(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < order.size(); ++i) {
    p.part[static_cast<std::size_t>(order[i])] =
        static_cast<graph::PartId>(i) % k;
  }
  return p;
}

/// Vertical bands of a side x side grid with a zig-zag border.
inline Partitioning banded_grid_partitioning(int side, graph::PartId k) {
  Partitioning p;
  p.num_parts = k;
  p.part.resize(static_cast<std::size_t>(side * side));
  for (int r = 0; r < side; ++r) {
    for (int c = 0; c < side; ++c) {
      const int jag = (r % 3) - 1;
      const int band = std::clamp((c + jag) * k / side, 0, k - 1);
      p.part[static_cast<std::size_t>(r * side + c)] =
          static_cast<graph::PartId>(band);
    }
  }
  return p;
}

/// side x side spatial blocks of the unit square (k = side^2 parts), with
/// a \p noise fraction of the vertices reassigned to a uniformly random
/// part.
inline Partitioning noisy_block_partitioning(
    const std::vector<std::array<double, 2>>& coords, int side, double noise,
    std::uint64_t seed) {
  pigp::SplitMix64 rng(seed);
  Partitioning p;
  p.num_parts = side * side;
  p.part.resize(coords.size());
  const auto cell = [side](double x) {
    return std::min(side - 1, static_cast<int>(x * side));
  };
  for (std::size_t v = 0; v < coords.size(); ++v) {
    p.part[v] = static_cast<graph::PartId>(cell(coords[v][0]) * side +
                                           cell(coords[v][1]));
    if (rng.next_double() < noise) {
      p.part[v] = static_cast<graph::PartId>(
          rng.next_below(static_cast<std::uint64_t>(p.num_parts)));
    }
  }
  return p;
}

/// One named golden case: graph, initial partitioning, refine options.
struct GoldenInput {
  Graph g;
  Partitioning p;
  RefineOptions opt;
};

inline GoldenInput golden_input(const std::string& name) {
  GoldenInput in;
  if (name == "grid_banded") {
    in.g = graph::grid_graph(60, 60);
    in.p = banded_grid_partitioning(60, 5);
  } else if (name == "grid_shuffled") {
    in.g = graph::grid_graph(48, 48);
    in.p = shuffled_partitioning(48 * 48, 4, 3);
    in.opt.max_rounds = 12;
  } else if (name == "geometric") {
    in.g = graph::random_geometric_graph(3000, 0.035, 21);
    in.p = shuffled_partitioning(3000, 6, 22);
    in.opt.max_rounds = 16;
  } else if (name == "geometric_large") {
    in.g = graph::random_geometric_graph(12000, 0.018, 31);
    in.p = shuffled_partitioning(12000, 8, 32);
  } else if (name == "hub") {
    in.g = hub_graph(4000, 3, 41);
    in.p = shuffled_partitioning(4000, 4, 42);
    in.opt.max_rounds = 12;
  } else if (name == "hub_sparse") {
    in.g = hub_graph(3000, 2, 51);
    in.p = shuffled_partitioning(3000, 3, 52);
    in.opt.max_rounds = 12;
  } else if (name == "geometric_p64") {
    std::vector<std::array<double, 2>> coords;
    in.g = graph::random_geometric_graph(8000, 0.025, 61, &coords);
    in.p = noisy_block_partitioning(coords, 8, 0.25, 62);
    in.opt.max_rounds = 10;
  } else if (name == "hub_p64") {
    in.g = hub_graph(6000, 3, 71);
    in.p = shuffled_partitioning(6000, 64, 72);
    in.opt.max_rounds = 10;
  }
  return in;
}

}  // namespace pigp::core::golden
