// Boundary-seeded layering parity: layer_partitions_from (seeded from the
// maintained PartitionState boundary index) grown to exhaustion must be
// bit-identical — labels, layers, eps — to the batch layer_partitions
// oracle, across mixed insert/delete/extend streams that exercise every
// index-maintenance path (move/retire/place, structural edge add/remove,
// weight merges, id remaps, extensions).  Depth-capped growth must be a
// monotone prefix of the same answer.
//
// Registered under the ctest `smoke` label so CI runs it on every build
// configuration, including ASan+UBSan.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "core/balance.hpp"
#include "core/layering.hpp"
#include "graph/builder.hpp"
#include "graph/delta.hpp"
#include "graph/generators.hpp"
#include "graph/partition.hpp"
#include "graph/partition_state.hpp"
#include "spectral/partitioners.hpp"
#include "support/rng.hpp"

namespace pigp::core {
namespace {

using graph::Graph;
using graph::GraphBuilder;
using graph::GraphDelta;
using graph::PartId;
using graph::Partitioning;
using graph::PartitionState;
using graph::VertexAddition;
using graph::VertexId;

void expect_layering_parity(const Graph& g, const Partitioning& p,
                            const PartitionState& state, const char* where,
                            int step) {
  const LayeringResult batch = layer_partitions(g, p);
  const LayeringResult boundary = layer_partitions_from(g, p, state);
  EXPECT_EQ(boundary.label, batch.label) << where << " step " << step;
  EXPECT_EQ(boundary.layer, batch.layer) << where << " step " << step;
  EXPECT_EQ(boundary.eps, batch.eps) << where << " step " << step;
}

/// Depth-capped growth: after each grow the labeled set is a prefix of the
/// batch answer (labels of labeled vertices match, eps entrywise ≤), and
/// at exhaustion everything is equal.
void expect_capped_growth_converges(const Graph& g, const Partitioning& p,
                                    const PartitionState& state) {
  const LayeringResult batch = layer_partitions(g, p);
  BoundaryLayering layering(g, p);
  layering.reseed(state);
  int guard = 0;
  while (!layering.exhausted()) {
    ASSERT_LT(guard++, 1 << 16);
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      const auto vi = static_cast<std::size_t>(v);
      if (layering.layer()[vi] >= 0) {
        EXPECT_EQ(layering.label()[vi], batch.label[vi]) << v;
        EXPECT_EQ(layering.layer()[vi], batch.layer[vi]) << v;
      }
    }
    for (std::size_t i = 0; i < batch.eps.rows(); ++i) {
      for (std::size_t j = 0; j < batch.eps.cols(); ++j) {
        EXPECT_LE(layering.eps()(i, j), batch.eps(i, j));
      }
    }
    layering.grow(1);
  }
  EXPECT_EQ(layering.label(), batch.label);
  EXPECT_EQ(layering.layer(), batch.layer);
  EXPECT_EQ(layering.eps(), batch.eps);
}

/// Replays the session's state bookkeeping for one delta: retire removed
/// vertices, account removed/added old-old edges (structural vs merge),
/// remap ids, and fold in the new-vertex placements.
struct StreamHarness {
  Graph g;
  Partitioning p;
  PartitionState state;
  SplitMix64 rng;

  StreamHarness(Graph graph, Partitioning part, std::uint64_t seed)
      : g(std::move(graph)), p(std::move(part)), state(g, p), rng(seed) {}

  void apply(const GraphDelta& delta) {
    const VertexId n_old = g.num_vertices();
    graph::DeltaResult applied = graph::apply_delta(g, delta);

    for (const VertexId v : delta.removed_vertices) {
      if (p.part[static_cast<std::size_t>(v)] != graph::kUnassigned) {
        state.move_vertex(g, p, v, graph::kUnassigned);
      }
    }
    std::vector<std::pair<VertexId, VertexId>> removed_edges;
    for (const auto& [u, v] : delta.removed_edges) {
      removed_edges.push_back(graph::canonical_edge(u, v));
    }
    std::sort(removed_edges.begin(), removed_edges.end());
    removed_edges.erase(
        std::unique(removed_edges.begin(), removed_edges.end()),
        removed_edges.end());
    for (const auto& [u, v] : removed_edges) {
      if (p.part[static_cast<std::size_t>(u)] == graph::kUnassigned ||
          p.part[static_cast<std::size_t>(v)] == graph::kUnassigned) {
        continue;
      }
      state.remove_edge(p, u, v, g.edge_weight(u, v));
    }
    std::vector<std::pair<VertexId, VertexId>> created;
    for (std::size_t i = 0; i < delta.added_edges.size(); ++i) {
      const auto [u, v] = delta.added_edges[i];
      if (u >= n_old || v >= n_old) continue;
      const double w = delta.added_edge_weights.empty()
                           ? 1.0
                           : delta.added_edge_weights[i];
      const auto canon = graph::canonical_edge(u, v);
      const bool structural =
          (std::binary_search(removed_edges.begin(), removed_edges.end(),
                              canon) ||
           !g.has_edge(u, v)) &&
          std::find(created.begin(), created.end(), canon) == created.end();
      if (structural) {
        created.push_back(canon);
        state.add_edge(p, u, v, w);
      } else {
        state.adjust_edge_weight(p, u, v, w);
      }
    }

    g = std::move(applied.graph);
    if (delta.has_removals()) {
      Partitioning carried;
      carried.num_parts = p.num_parts;
      carried.part.assign(
          static_cast<std::size_t>(applied.first_new_vertex),
          graph::kUnassigned);
      for (std::size_t v = 0; v < applied.old_to_new.size(); ++v) {
        if (applied.old_to_new[v] != graph::kInvalidVertex) {
          carried.part[static_cast<std::size_t>(applied.old_to_new[v])] =
              p.part[v];
        }
      }
      p = std::move(carried);
      state.remap_vertices(applied.old_to_new, g.num_vertices());
    }

    // Place the appended vertices somewhere deterministic-but-random.
    Partitioning placed;
    placed.num_parts = p.num_parts;
    placed.part = p.part;
    placed.part.resize(static_cast<std::size_t>(g.num_vertices()),
                       graph::kUnassigned);
    for (VertexId v = applied.first_new_vertex; v < g.num_vertices(); ++v) {
      placed.part[static_cast<std::size_t>(v)] = static_cast<PartId>(
          rng.next_below(static_cast<std::uint64_t>(p.num_parts)));
    }
    state.extend(g, p, applied.first_new_vertex, placed);
  }
};

GraphDelta random_delta(const Graph& g, SplitMix64& rng, bool removals) {
  const VertexId n = g.num_vertices();
  GraphDelta delta;

  std::set<VertexId> removed;
  if (removals && n > 80) {
    const int count = 1 + static_cast<int>(rng.next_below(4));
    for (int i = 0; i < count; ++i) {
      removed.insert(static_cast<VertexId>(
          rng.next_below(static_cast<std::uint64_t>(n))));
    }
    delta.removed_vertices.assign(removed.begin(), removed.end());
  }
  const auto survives = [&](VertexId v) { return removed.count(v) == 0; };
  const auto random_survivor = [&] {
    for (;;) {
      const auto v = static_cast<VertexId>(
          rng.next_below(static_cast<std::uint64_t>(n)));
      if (survives(v)) return v;
    }
  };

  if (removals) {
    for (int i = 0; i < 2; ++i) {
      const VertexId v = random_survivor();
      const auto nbrs = g.neighbors(v);
      if (nbrs.empty()) continue;
      const VertexId u = nbrs[rng.next_below(nbrs.size())];
      delta.removed_edges.emplace_back(v, u);
    }
  }

  const int additions = 2 + static_cast<int>(rng.next_below(5));
  for (int i = 0; i < additions; ++i) {
    VertexAddition add;
    add.edges.emplace_back(random_survivor(), 1.0);
    if (i > 0) add.edges.emplace_back(n + i - 1, 1.0);
    delta.added_vertices.push_back(std::move(add));
  }
  for (int i = 0; i < 2; ++i) {
    const VertexId a = random_survivor();
    const VertexId b = random_survivor();
    if (a == b) continue;
    delta.added_edges.emplace_back(a, b);
    delta.added_edge_weights.push_back(
        1.0 + static_cast<double>(rng.next_below(3)));
  }
  return delta;
}

TEST(BoundaryLayeringParity, MixedStreamStaysBitIdenticalToBatch) {
  const Graph base = graph::random_geometric_graph(400, 0.08, 71);
  const Partitioning initial =
      spectral::recursive_graph_bisection(base, 6);
  StreamHarness harness(base, initial, 9001);
  expect_layering_parity(harness.g, harness.p, harness.state, "initial", -1);

  SplitMix64 delta_rng(9002);
  for (int step = 0; step < 14; ++step) {
    harness.apply(random_delta(harness.g, delta_rng, step % 2 == 1));
    expect_layering_parity(harness.g, harness.p, harness.state, "stream",
                           step);
  }
}

TEST(BoundaryLayeringParity, CappedGrowthIsAPrefixAndConverges) {
  const Graph base = graph::random_geometric_graph(350, 0.09, 73);
  const Partitioning initial =
      spectral::recursive_graph_bisection(base, 5);
  StreamHarness harness(base, initial, 9003);
  SplitMix64 delta_rng(9004);
  for (int step = 0; step < 4; ++step) {
    harness.apply(random_delta(harness.g, delta_rng, step == 2));
  }
  expect_capped_growth_converges(harness.g, harness.p, harness.state);
}

TEST(BoundaryLayeringParity, ReseedReusesArraysAcrossStages) {
  // One BoundaryLayering object reseeded repeatedly (the per-stage path in
  // balance_load) must keep producing the batch answer as the partitioning
  // changes under it.
  const Graph g = graph::random_geometric_graph(300, 0.1, 79);
  Partitioning p = spectral::recursive_graph_bisection(g, 4);
  PartitionState state(g, p);
  BoundaryLayering layering(g, p);
  SplitMix64 rng(9005);

  for (int stage = 0; stage < 5; ++stage) {
    layering.reseed(state);
    layering.grow(-1);
    const LayeringResult batch = layer_partitions(g, p);
    EXPECT_EQ(layering.label(), batch.label) << stage;
    EXPECT_EQ(layering.layer(), batch.layer) << stage;
    EXPECT_EQ(layering.eps(), batch.eps) << stage;
    // Mutate between stages like balance transfers do.
    for (int k = 0; k < 25; ++k) {
      const auto v = static_cast<VertexId>(rng.next_below(
          static_cast<std::uint64_t>(g.num_vertices())));
      state.move_vertex(g, p, v, static_cast<PartId>(rng.next_below(4)));
    }
  }
}

TEST(BoundaryLayeringParity, PersistentBindReusesAcrossGrowthAndRemap) {
  // The workspace configuration: ONE BoundaryLayering living across a
  // whole stream, rebound per repartition.  Appended vertices exercise the
  // amortized-growth path; removal deltas remap ids and must go through
  // invalidate() + the full-reset bind.  Every step must still equal the
  // batch layering bit for bit.
  const Graph base = graph::random_geometric_graph(350, 0.09, 91);
  const Partitioning initial =
      spectral::recursive_graph_bisection(base, 6);
  StreamHarness harness(base, initial, 9101);
  BoundaryLayering persistent;  // lives across all steps, like a Workspace
  SplitMix64 delta_rng(9102);
  for (int step = 0; step < 10; ++step) {
    const bool removals = step % 3 == 2;
    harness.apply(random_delta(harness.g, delta_rng, removals));
    if (removals) persistent.invalidate();
    persistent.bind(harness.g, harness.p);
    persistent.reseed(harness.state);
    persistent.grow(-1);
    const LayeringResult batch = layer_partitions(harness.g, harness.p);
    EXPECT_EQ(persistent.label(), batch.label) << step;
    EXPECT_EQ(persistent.layer(), batch.layer) << step;
    EXPECT_EQ(persistent.eps(), batch.eps) << step;
  }
}

TEST(BoundaryLayeringParity, BindRevivesAfterTakeResult) {
  // take_result() moves the arrays out; bind() must detect that (even
  // when graph size and part count are unchanged — the moved-from eps
  // keeps its shape) and full-reset, after which the object produces the
  // batch answer again.
  const Graph g = graph::random_geometric_graph(250, 0.11, 97);
  const Partitioning p = spectral::recursive_graph_bisection(g, 4);
  const PartitionState state(g, p);
  BoundaryLayering layering(g, p);
  layering.reseed(state);
  layering.grow(-1);
  const LayeringResult taken = layering.take_result();

  layering.bind(g, p);  // same n, same parts — must still full-reset
  layering.reseed(state);
  layering.grow(-1);
  EXPECT_EQ(layering.label(), taken.label);
  EXPECT_EQ(layering.layer(), taken.layer);
  EXPECT_EQ(layering.eps(), taken.eps);
}

TEST(BoundaryLayeringParity, StateDrivenBalanceMatchesBatchBalance) {
  // With unlimited depth the state-driven balance driver must reproduce
  // the batch driver bit for bit; with the default cap it must still land
  // balanced with the same α (capped stages accept α = 1 early and only
  // settle for α > 1 on batch-equivalent capacities).
  const Graph g = graph::random_geometric_graph(400, 0.08, 89);
  Partitioning skewed = spectral::recursive_graph_bisection(g, 4);
  {
    int moved = 0;
    for (VertexId v = 0; v < g.num_vertices() && moved < 60; ++v) {
      if (skewed.part[static_cast<std::size_t>(v)] == 1) {
        skewed.part[static_cast<std::size_t>(v)] = 0;
        ++moved;
      }
    }
  }

  BalanceOptions unlimited;
  unlimited.max_layers = 0;
  Partitioning batch_p = skewed;
  const BalanceResult batch = balance_load(g, batch_p, unlimited);

  Partitioning state_p = skewed;
  PartitionState state(g, state_p);
  const BalanceResult incremental =
      balance_load(g, state_p, state, unlimited);
  EXPECT_EQ(batch_p.part, state_p.part);
  EXPECT_EQ(batch.balanced, incremental.balanced);
  EXPECT_EQ(batch.stages.size(), incremental.stages.size());

  Partitioning capped_p = skewed;
  const BalanceResult capped = balance_load(g, capped_p, {});
  EXPECT_TRUE(capped.balanced);
  ASSERT_FALSE(capped.stages.empty());
  ASSERT_FALSE(batch.stages.empty());
  EXPECT_EQ(capped.stages[0].alpha, batch.stages[0].alpha);
}

}  // namespace
}  // namespace pigp::core
