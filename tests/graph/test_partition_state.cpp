// graph::PartitionState — the O(Δ)-maintained metrics substrate.  The
// invariant under test everywhere: any sequence of incremental updates
// leaves the state bit-identical (integer-valued weights) to a fresh
// rescan of the final configuration.

#include "graph/partition_state.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/partition.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace pigp::graph {
namespace {

/// Reference implementation tolerating kUnassigned entries: unassigned
/// vertices contribute neither weight nor edges.
struct Brute {
  std::vector<double> weight;
  std::vector<double> boundary;
  double cut = 0.0;
};

Brute brute_force(const Graph& g, const Partitioning& p) {
  Brute b;
  b.weight.assign(static_cast<std::size_t>(p.num_parts), 0.0);
  b.boundary.assign(static_cast<std::size_t>(p.num_parts), 0.0);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const PartId pv = p.part[static_cast<std::size_t>(v)];
    if (pv == kUnassigned) continue;
    b.weight[static_cast<std::size_t>(pv)] += g.vertex_weight(v);
    const auto nbrs = g.neighbors(v);
    const auto weights = g.incident_edge_weights(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const PartId pu = p.part[static_cast<std::size_t>(nbrs[i])];
      if (pu == kUnassigned || pu == pv) continue;
      b.boundary[static_cast<std::size_t>(pv)] += weights[i];
      if (nbrs[i] > v) b.cut += weights[i];
    }
  }
  return b;
}

void expect_state_matches(const PartitionState& state, const Graph& g,
                          const Partitioning& p, const char* where) {
  const Brute b = brute_force(g, p);
  EXPECT_EQ(state.weights(), b.weight) << where;
  EXPECT_EQ(state.boundary_costs(), b.boundary) << where;
  EXPECT_EQ(state.cut_total(), b.cut) << where;
}

Partitioning random_partitioning(VertexId n, PartId parts, SplitMix64& rng) {
  Partitioning p;
  p.num_parts = parts;
  p.part.resize(static_cast<std::size_t>(n));
  for (auto& q : p.part) {
    q = static_cast<PartId>(rng.next_below(static_cast<std::uint64_t>(parts)));
  }
  return p;
}

TEST(PartitionState, RebuildAndSnapshotMatchComputeMetrics) {
  SplitMix64 rng(11);
  const Graph g = random_geometric_graph(300, 0.1, 3);
  const Partitioning p = random_partitioning(g.num_vertices(), 5, rng);

  const PartitionState state(g, p);
  const PartitionMetrics fresh = compute_metrics(g, p);
  EXPECT_EQ(state.snapshot().weight, fresh.weight);
  EXPECT_EQ(state.snapshot().boundary_cost, fresh.boundary_cost);
  EXPECT_EQ(state.snapshot().cut_total, fresh.cut_total);
  EXPECT_EQ(state.snapshot().imbalance, fresh.imbalance);
  EXPECT_EQ(state.snapshot().cut_max, fresh.cut_max);
  EXPECT_EQ(state.snapshot().cut_min, fresh.cut_min);
}

TEST(PartitionState, MoveRetireAndPlaceSequencesStayExact) {
  SplitMix64 rng(23);
  const Graph g = random_geometric_graph(200, 0.12, 5);
  Partitioning p = random_partitioning(g.num_vertices(), 4, rng);
  PartitionState state(g, p);

  for (int step = 0; step < 500; ++step) {
    const auto v = static_cast<VertexId>(
        rng.next_below(static_cast<std::uint64_t>(g.num_vertices())));
    // Mix plain moves with retire (-> kUnassigned) and re-place cycles.
    PartId to;
    if (rng.next_below(5) == 0) {
      to = kUnassigned;
    } else {
      to = static_cast<PartId>(rng.next_below(4));
    }
    state.move_vertex(g, p, v, to);
    EXPECT_EQ(p.part[static_cast<std::size_t>(v)], to);
  }
  expect_state_matches(state, g, p, "after 500 random moves");
}

TEST(PartitionState, MoveVertexRejectsOutOfRangeDestination) {
  const Graph g = random_geometric_graph(50, 0.2, 7);
  SplitMix64 rng(3);
  Partitioning p = random_partitioning(g.num_vertices(), 3, rng);
  PartitionState state(g, p);
  EXPECT_THROW(state.move_vertex(g, p, 0, 3), CheckError);
  EXPECT_THROW(state.move_vertex(g, p, 0, -2), CheckError);
}

TEST(PartitionState, AddAndRemoveEdgeMatchRebuildOnTheModifiedGraph) {
  // Simulate an edge flip: state on g1 plus add/remove bookkeeping must
  // equal a rebuild on g2 (which has {0,3} instead of {1,2}).
  GraphBuilder b1(4);
  b1.add_edge(0, 1, 2.0);
  b1.add_edge(1, 2, 3.0);
  b1.add_edge(2, 3, 1.0);
  const Graph g1 = b1.build();
  GraphBuilder b2(4);
  b2.add_edge(0, 1, 2.0);
  b2.add_edge(2, 3, 1.0);
  b2.add_edge(0, 3, 5.0);
  const Graph g2 = b2.build();

  Partitioning p;
  p.num_parts = 2;
  p.part = {0, 0, 1, 1};

  PartitionState state(g1, p);
  state.remove_edge(p, 1, 2, 3.0);
  state.add_edge(p, 0, 3, 5.0);

  const PartitionState fresh(g2, p);
  EXPECT_EQ(state.weights(), fresh.weights());
  EXPECT_EQ(state.boundary_costs(), fresh.boundary_costs());
  EXPECT_EQ(state.cut_total(), fresh.cut_total());

  // Edges with an unassigned endpoint are invisible on both paths.
  Partitioning q = p;
  PartitionState retired(g1, q);
  retired.move_vertex(g1, q, 1, kUnassigned);
  const double cut_before = retired.cut_total();
  retired.remove_edge(q, 1, 2, 3.0);  // endpoint retired: no-op
  EXPECT_EQ(retired.cut_total(), cut_before);
}

TEST(PartitionState, ExtendCountsEveryAppendedEdgeExactlyOnce) {
  SplitMix64 rng(31);
  const Graph base = random_geometric_graph(120, 0.15, 9);
  Partitioning p = random_partitioning(base.num_vertices(), 4, rng);
  PartitionState state(base, p);

  // Extend with a connected clump: edges old-new and new-new.
  GraphBuilder builder(base.num_vertices());
  for (VertexId v = 0; v < base.num_vertices(); ++v) {
    builder.set_vertex_weight(v, base.vertex_weight(v));
    for (std::size_t i = 0; i < base.neighbors(v).size(); ++i) {
      const VertexId u = base.neighbors(v)[i];
      if (u > v) builder.add_edge(v, u, base.incident_edge_weights(v)[i]);
    }
  }
  const VertexId first_new = base.num_vertices();
  for (int k = 0; k < 10; ++k) {
    const VertexId id = builder.add_vertex(2.0);
    builder.add_edge(id, static_cast<VertexId>(rng.next_below(
                             static_cast<std::uint64_t>(first_new))),
                     3.0);
    if (k > 0) builder.add_edge(id, id - 1, 1.0);
  }
  const Graph extended = builder.build();

  Partitioning placed;
  placed.num_parts = p.num_parts;
  placed.part = p.part;
  placed.part.resize(static_cast<std::size_t>(extended.num_vertices()));
  for (VertexId v = first_new; v < extended.num_vertices(); ++v) {
    placed.part[static_cast<std::size_t>(v)] =
        static_cast<PartId>(rng.next_below(4));
  }

  state.extend(extended, p, first_new, placed);
  EXPECT_EQ(p.part, placed.part);
  const PartitionState fresh(extended, placed);
  EXPECT_EQ(state.weights(), fresh.weights());
  EXPECT_EQ(state.boundary_costs(), fresh.boundary_costs());
  EXPECT_EQ(state.cut_total(), fresh.cut_total());
}

TEST(PartitionState, TransitionMovesOnlyTheDiffAndLandsExactly) {
  SplitMix64 rng(41);
  const Graph g = random_geometric_graph(250, 0.1, 13);
  Partitioning p1 = random_partitioning(g.num_vertices(), 6, rng);
  const Partitioning p2 = random_partitioning(g.num_vertices(), 6, rng);

  PartitionState state(g, p1);
  state.transition(g, p1, p2);
  EXPECT_EQ(p1.part, p2.part);
  const PartitionState fresh(g, p2);
  EXPECT_EQ(state.weights(), fresh.weights());
  EXPECT_EQ(state.boundary_costs(), fresh.boundary_costs());
  EXPECT_EQ(state.cut_total(), fresh.cut_total());

  // A shorter current partitioning (freshly appended tail) is treated as
  // unassigned and placed by the transition.
  Partitioning head;
  head.num_parts = 6;
  head.part.assign(p2.part.begin(), p2.part.begin() + 100);
  PartitionState grown(g, p2);
  {
    // Rewind the state to the head-only view by retiring the tail.
    Partitioning scratch = p2;
    for (VertexId v = 100; v < g.num_vertices(); ++v) {
      grown.move_vertex(g, scratch, v, kUnassigned);
    }
  }
  grown.transition(g, head, p2);
  EXPECT_EQ(head.part, p2.part);
  EXPECT_EQ(grown.cut_total(), fresh.cut_total());
  EXPECT_EQ(grown.weights(), fresh.weights());
}

TEST(PartitionState, ReconcileExtensionHandlesOldOldRewiring) {
  // g_old: path 0-1-2-3 plus 1-3; the "extension" drops 1-3, reweights
  // 1-2, adds 0-2, and appends vertex 4 (invisible until placed).
  GraphBuilder old_b(4);
  old_b.add_edge(0, 1, 1.0);
  old_b.add_edge(1, 2, 2.0);
  old_b.add_edge(2, 3, 1.0);
  old_b.add_edge(1, 3, 4.0);
  const Graph g_old = old_b.build();

  GraphBuilder new_b(4);
  new_b.add_edge(0, 1, 1.0);
  new_b.add_edge(1, 2, 5.0);  // weight changed
  new_b.add_edge(2, 3, 1.0);
  new_b.add_edge(0, 2, 7.0);  // created
  const VertexId v4 = new_b.add_vertex(1.0);
  new_b.add_edge(v4, 3, 9.0);
  const Graph g_new = new_b.build();

  Partitioning p;
  p.num_parts = 2;
  p.part = {0, 0, 1, 1};

  PartitionState state(g_old, p);
  const PartitionState::EdgeDiff diff =
      state.reconcile_extension(g_old, g_new, p, 4);
  EXPECT_EQ(diff.added, 1);    // {0,2}
  EXPECT_EQ(diff.removed, 1);  // {1,3}

  Partitioning placed = p;
  placed.part.push_back(0);
  Partitioning view = p;  // old-vertex view; vertex 4 still unassigned
  state.extend(g_new, view, 4, placed);
  const PartitionState fresh(g_new, placed);
  EXPECT_EQ(state.weights(), fresh.weights());
  EXPECT_EQ(state.boundary_costs(), fresh.boundary_costs());
  EXPECT_EQ(state.cut_total(), fresh.cut_total());
}

/// Brute-force boundary sets: [q] lists, ascending, partition q's vertices
/// with an assigned neighbor in another partition.
std::vector<std::vector<VertexId>> brute_force_boundary(const Graph& g,
                                                        const Partitioning& p) {
  std::vector<std::vector<VertexId>> boundary(
      static_cast<std::size_t>(p.num_parts));
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const PartId pv = p.part[static_cast<std::size_t>(v)];
    if (pv == kUnassigned) continue;
    for (const VertexId u : g.neighbors(v)) {
      const PartId pu = p.part[static_cast<std::size_t>(u)];
      if (pu != kUnassigned && pu != pv) {
        boundary[static_cast<std::size_t>(pv)].push_back(v);
        break;
      }
    }
  }
  return boundary;
}

/// The ordered walk, filtered per partition, and every per-partition count
/// must equal the brute-force boundary sets.
void expect_ascending_matches_brute_force(const PartitionState& state,
                                          const Graph& g,
                                          const Partitioning& p,
                                          const char* where) {
  const auto expected = brute_force_boundary(g, p);
  std::vector<VertexId> walked = {-7};  // stale content must be cleared
  state.boundary_ascending(walked);
  std::vector<std::vector<VertexId>> walked_by_part(
      static_cast<std::size_t>(p.num_parts));
  for (const VertexId v : walked) {
    const PartId q = p.part[static_cast<std::size_t>(v)];
    if (q < 0 || q >= p.num_parts) {
      ADD_FAILURE() << where << ": walked vertex " << v << " is unassigned";
      continue;
    }
    walked_by_part[static_cast<std::size_t>(q)].push_back(v);
  }
  for (PartId q = 0; q < p.num_parts; ++q) {
    const auto& want = expected[static_cast<std::size_t>(q)];
    EXPECT_EQ(state.boundary_vertices(q).size(), want.size())
        << where << " partition " << q;
    EXPECT_EQ(walked_by_part[static_cast<std::size_t>(q)], want)
        << where << " partition " << q;
  }
}

/// Brute-force check of the whole boundary index: external degrees, then
/// the ordered walk and the per-partition counts.
void expect_boundary_index_matches(const PartitionState& state,
                                   const Graph& g, const Partitioning& p,
                                   const char* where) {
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const PartId pv = p.part[static_cast<std::size_t>(v)];
    std::int32_t ext = 0;
    if (pv != kUnassigned) {
      for (const VertexId u : g.neighbors(v)) {
        const PartId pu = p.part[static_cast<std::size_t>(u)];
        if (pu != kUnassigned && pu != pv) ++ext;
      }
    }
    EXPECT_EQ(state.external_degree(v), ext) << where << " vertex " << v;
    EXPECT_EQ(state.is_boundary(v), ext > 0) << where << " vertex " << v;
  }
  expect_ascending_matches_brute_force(state, g, p, where);
}

TEST(PartitionStateBoundaryIndex, RebuildMatchesBruteForce) {
  SplitMix64 rng(51);
  const Graph g = random_geometric_graph(200, 0.12, 17);
  const Partitioning p = random_partitioning(g.num_vertices(), 5, rng);
  const PartitionState state(g, p);
  expect_boundary_index_matches(state, g, p, "rebuild");
}

TEST(PartitionStateBoundaryIndex, SurvivesRandomMoveRetirePlaceSequences) {
  SplitMix64 rng(53);
  const Graph g = random_geometric_graph(180, 0.12, 19);
  Partitioning p = random_partitioning(g.num_vertices(), 4, rng);
  PartitionState state(g, p);

  for (int step = 0; step < 600; ++step) {
    const auto v = static_cast<VertexId>(
        rng.next_below(static_cast<std::uint64_t>(g.num_vertices())));
    const PartId to = rng.next_below(6) == 0
                          ? kUnassigned
                          : static_cast<PartId>(rng.next_below(4));
    state.move_vertex(g, p, v, to);
    if (step % 97 == 0) {
      expect_boundary_index_matches(state, g, p, "mid-sequence");
    }
  }
  expect_boundary_index_matches(state, g, p, "after 600 moves");
}

TEST(PartitionStateBoundaryIndex, AscendingWalkTracksEveryKindOfEdit) {
  // Random move / retire / place / add_edge / remove_edge / grow_vertices
  // / remap_vertices sequences over a mutable graph: after every step the
  // ordered boundary walk and the per-partition counts equal a brute-force
  // recount, and at checkpoints the external degrees do too.
  SplitMix64 rng(71);
  Graph g = random_geometric_graph(150, 0.13, 37);
  Partitioning p = random_partitioning(g.num_vertices(), 4, rng);
  PartitionState state(g, p);
  expect_ascending_matches_brute_force(state, g, p, "rebuild");

  const auto random_live = [&]() {
    for (;;) {
      const auto v = static_cast<VertexId>(
          rng.next_below(static_cast<std::uint64_t>(g.num_vertices())));
      if (g.is_live(v)) return v;
    }
  };
  int remaps = 0;
  for (int step = 0; step < 1500; ++step) {
    const std::uint64_t op = rng.next_below(16);
    if (op < 6) {  // move or place
      state.move_vertex(g, p, random_live(),
                        static_cast<PartId>(rng.next_below(4)));
    } else if (op < 8) {  // retire
      state.move_vertex(g, p, random_live(), kUnassigned);
    } else if (op < 10) {  // add a structurally new edge
      const VertexId u = random_live();
      const VertexId v = random_live();
      if (u != v && g.insert_edge(u, v, 1.0)) state.add_edge(p, u, v, 1.0);
    } else if (op < 12) {  // remove an existing edge
      const VertexId u = random_live();
      const auto nbrs = g.neighbors(u);
      if (!nbrs.empty()) {
        const VertexId v = nbrs[rng.next_below(nbrs.size())];
        const double w = g.remove_edge(u, v);
        state.remove_edge(p, u, v, w);
      }
    } else if (op < 14) {  // append a vertex wired to two live ones
      const VertexId v = g.add_vertex(1.0);
      p.part.push_back(kUnassigned);
      state.grow_vertices(g.num_vertices());
      for (int k = 0; k < 2; ++k) {
        const VertexId u = random_live();
        if (u != v && g.insert_edge(u, v, 1.0)) state.add_edge(p, u, v, 1.0);
      }
      state.move_vertex(g, p, v, static_cast<PartId>(rng.next_below(4)));
    } else if (op < 15) {  // remove a vertex (retired first)
      const VertexId v = random_live();
      state.move_vertex(g, p, v, kUnassigned);
      g.remove_vertex(v);
    } else {  // compact the dead ids away
      std::vector<VertexId> old_to_new;
      const VertexId n = g.compact(old_to_new);
      Partitioning carried;
      carried.num_parts = p.num_parts;
      carried.part.assign(static_cast<std::size_t>(n), kUnassigned);
      for (std::size_t v = 0; v < old_to_new.size(); ++v) {
        if (old_to_new[v] != kInvalidVertex) {
          carried.part[static_cast<std::size_t>(old_to_new[v])] = p.part[v];
        }
      }
      p = std::move(carried);
      state.remap_vertices(old_to_new, n);
      ++remaps;
    }
    expect_ascending_matches_brute_force(state, g, p, "mid-sequence");
    if (step % 101 == 0) {
      expect_boundary_index_matches(state, g, p, "checkpoint");
    }
  }
  EXPECT_GT(remaps, 0);
  expect_boundary_index_matches(state, g, p, "after 1500 edits");
  expect_ascending_matches_brute_force(state, g, p, "after 1500 edits");
}

TEST(PartitionStateBoundaryIndex, StructuralEdgesCountWeightMergesDoNot) {
  // Path 0-1-2-3 split {0,1 | 2,3}: only the {1,2} edge is external.
  GraphBuilder b(4);
  b.add_edge(0, 1, 1.0);
  b.add_edge(1, 2, 1.0);
  b.add_edge(2, 3, 1.0);
  const Graph g = b.build();
  Partitioning p;
  p.num_parts = 2;
  p.part = {0, 0, 1, 1};
  PartitionState state(g, p);
  EXPECT_EQ(state.external_degree(1), 1);
  EXPECT_EQ(state.external_degree(0), 0);

  // A weight merge on the existing cross edge changes costs, not counts.
  state.adjust_edge_weight(p, 1, 2, 4.0);
  EXPECT_EQ(state.external_degree(1), 1);
  EXPECT_EQ(state.cut_total(), 5.0);

  // A structurally new cross edge bumps both endpoints into the boundary
  // (vertex 3's other neighbor is internal, so this is its only external
  // edge).
  state.add_edge(p, 0, 3, 2.0);
  EXPECT_EQ(state.external_degree(0), 1);
  EXPECT_EQ(state.external_degree(3), 1);
  EXPECT_TRUE(state.is_boundary(0));
  EXPECT_TRUE(state.is_boundary(3));

  // Removing it entirely takes them back out.
  state.remove_edge(p, 0, 3, 2.0);
  EXPECT_EQ(state.external_degree(0), 0);
  EXPECT_FALSE(state.is_boundary(0));
  EXPECT_EQ(state.external_degree(3), 0);
  EXPECT_FALSE(state.is_boundary(3));
  EXPECT_EQ(state.cut_total(), 5.0);
}

TEST(PartitionStateBoundaryIndex, ExtendAndTransitionKeepTheIndexExact) {
  SplitMix64 rng(57);
  const Graph g = random_geometric_graph(220, 0.11, 23);
  Partitioning p1 = random_partitioning(g.num_vertices(), 5, rng);
  const Partitioning p2 = random_partitioning(g.num_vertices(), 5, rng);
  PartitionState state(g, p1);
  state.transition(g, p1, p2);
  expect_boundary_index_matches(state, g, p1, "after transition");
}

TEST(PartitionStateBoundaryIndex, RemapRewritesIdsAfterCompaction) {
  SplitMix64 rng(59);
  const Graph g = random_geometric_graph(150, 0.14, 29);
  Partitioning p = random_partitioning(g.num_vertices(), 4, rng);
  PartitionState state(g, p);

  // Retire a handful of vertices (the session does this before the swap),
  // then rebuild the graph without them and remap the index.
  const std::vector<VertexId> removed = {3, 50, 51, 149};
  for (const VertexId v : removed) state.move_vertex(g, p, v, kUnassigned);

  std::vector<VertexId> old_to_new(
      static_cast<std::size_t>(g.num_vertices()), kInvalidVertex);
  GraphBuilder builder;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (p.part[static_cast<std::size_t>(v)] != kUnassigned) {
      old_to_new[static_cast<std::size_t>(v)] =
          builder.add_vertex(g.vertex_weight(v));
    }
  }
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const VertexId nv = old_to_new[static_cast<std::size_t>(v)];
    if (nv == kInvalidVertex) continue;
    for (std::size_t i = 0; i < g.neighbors(v).size(); ++i) {
      const VertexId u = g.neighbors(v)[i];
      const VertexId nu = old_to_new[static_cast<std::size_t>(u)];
      if (u > v && nu != kInvalidVertex) {
        builder.add_edge(nv, nu, g.incident_edge_weights(v)[i]);
      }
    }
  }
  const Graph compacted = builder.build();

  Partitioning carried;
  carried.num_parts = p.num_parts;
  carried.part.resize(static_cast<std::size_t>(compacted.num_vertices()));
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const VertexId nv = old_to_new[static_cast<std::size_t>(v)];
    if (nv != kInvalidVertex) {
      carried.part[static_cast<std::size_t>(nv)] =
          p.part[static_cast<std::size_t>(v)];
    }
  }

  state.remap_vertices(old_to_new, compacted.num_vertices());
  expect_boundary_index_matches(state, compacted, carried, "after remap");
  const PartitionState fresh(compacted, carried);
  EXPECT_EQ(state.weights(), fresh.weights());
  EXPECT_EQ(state.cut_total(), fresh.cut_total());
}

TEST(PartitionStateBoundaryIndex, InverseMoveReplayRestoresExactly) {
  // The refine revert protocol: moves inside a rollback window, then
  // undo() — everything must be bit-identical.
  SplitMix64 rng(61);
  const Graph g = random_geometric_graph(160, 0.13, 31);
  Partitioning p = random_partitioning(g.num_vertices(), 4, rng);
  PartitionState state(g, p);
  const Partitioning p_before = p;

  PartitionState::RollbackWindow window(state);
  for (int k = 0; k < 40; ++k) {
    const auto v = static_cast<VertexId>(
        rng.next_below(static_cast<std::uint64_t>(g.num_vertices())));
    state.move_vertex(g, p, v, static_cast<PartId>(rng.next_below(4)));
  }
  window.undo(g, p);

  EXPECT_EQ(p.part, p_before.part);
  expect_boundary_index_matches(state, g, p, "after inverse replay");
  const PartitionState fresh(g, p);
  EXPECT_EQ(state.weights(), fresh.weights());
  EXPECT_EQ(state.boundary_costs(), fresh.boundary_costs());
  EXPECT_EQ(state.cut_total(), fresh.cut_total());
}

/// A 40-vertex ring with chords whose edge weights are not exactly
/// representable (0.1 steps), so replaying moves forward and back drifts
/// the floating-point aggregates unless the window restores them.
Graph fractional_weight_graph() {
  GraphBuilder b(40);
  for (VertexId v = 0; v < 40; ++v) {
    b.add_edge(v, (v + 1) % 40, 0.1 * static_cast<double>(1 + v % 7));
    b.add_edge(v, (v + 7) % 40, 0.3 + 0.1 * static_cast<double>(v % 3));
  }
  return b.build();
}

TEST(PartitionStateRollbackWindow, UndoRestoresTheAggregatesBitForBit) {
  const Graph g = fractional_weight_graph();
  SplitMix64 rng(5);
  Partitioning p = random_partitioning(g.num_vertices(), 3, rng);
  PartitionState state(g, p);
  const Partitioning p_before = p;
  const std::vector<double> weights_before = state.weights();
  const std::vector<double> costs_before = state.boundary_costs();
  const double cut_before = state.cut_total();

  for (int trial = 0; trial < 3; ++trial) {  // the window can undo again
    PartitionState::RollbackWindow window(state);
    for (int k = 0; k < 25; ++k) {
      const auto v = static_cast<VertexId>(
          rng.next_below(static_cast<std::uint64_t>(g.num_vertices())));
      state.move_vertex(g, p, v, static_cast<PartId>(rng.next_below(3)));
    }
    EXPECT_EQ(window.moves().size(), state.journal_size());
    window.undo(g, p);
    EXPECT_TRUE(window.moves().empty());
    window.undo(g, p);  // nothing recorded since: a no-op restore
  }
  EXPECT_EQ(p.part, p_before.part);
  EXPECT_EQ(state.weights(), weights_before);
  EXPECT_EQ(state.boundary_costs(), costs_before);
  EXPECT_EQ(state.cut_total(), cut_before);
  expect_boundary_index_matches(state, g, p, "after repeated undo");
}

TEST(PartitionStateRollbackWindow, NestedWindowsUndoOnlyTheirOwnTail) {
  SplitMix64 rng(17);
  const Graph g = random_geometric_graph(120, 0.15, 3);
  Partitioning p = random_partitioning(g.num_vertices(), 4, rng);
  PartitionState state(g, p);
  const Partitioning p_entry = p;

  PartitionState::RollbackWindow outer(state);
  state.move_vertex(g, p, 0, (p.part[0] + 1) % 4);
  state.move_vertex(g, p, 1, (p.part[1] + 1) % 4);
  const Partitioning p_outer = p;
  const double cut_outer = state.cut_total();
  {
    PartitionState::RollbackWindow inner(state);
    state.move_vertex(g, p, 2, (p.part[2] + 1) % 4);
    state.move_vertex(g, p, 0, (p.part[0] + 1) % 4);
    ASSERT_EQ(inner.moves().size(), 2u);
    EXPECT_EQ(inner.moves()[0].v, 2);
    EXPECT_EQ(inner.moves()[1].from, p_outer.part[0]);
    inner.undo(g, p);
    EXPECT_EQ(p.part, p_outer.part);
    EXPECT_EQ(state.cut_total(), cut_outer);

    // A kept inner move (the inner window closes without undoing) joins
    // the outer window's tail.
    state.move_vertex(g, p, 3, (p.part[3] + 1) % 4);
  }
  ASSERT_EQ(outer.moves().size(), 3u);
  EXPECT_EQ(outer.moves()[2].v, 3);
  outer.undo(g, p);
  EXPECT_EQ(p.part, p_entry.part);
  expect_boundary_index_matches(state, g, p, "after nested undo");
}

TEST(PartitionStateRollbackWindow, WindowsLeftByAnExceptionCloseThemselves) {
  SplitMix64 rng(23);
  const Graph g = random_geometric_graph(100, 0.15, 9);
  Partitioning p = random_partitioning(g.num_vertices(), 3, rng);
  PartitionState state(g, p);
  const Partitioning p_entry = p;

  {
    PartitionState::RollbackWindow outer(state);
    try {
      PartitionState::RollbackWindow inner(state);
      state.move_vertex(g, p, 4, (p.part[4] + 1) % 3);
      throw std::runtime_error("speculative phase failed");
    } catch (const std::runtime_error&) {
      // The inner window closed during unwinding without undoing: its
      // move is still in the (open) outer window's tail.
      EXPECT_EQ(outer.moves().size(), 1u);
      outer.undo(g, p);
    }
    EXPECT_EQ(p.part, p_entry.part);
  }
  // Every window is closed: nothing is recorded any more.
  EXPECT_EQ(state.journal_size(), 0u);
  state.move_vertex(g, p, 5, (p.part[5] + 1) % 3);
  state.move_vertex(g, p, 6, (p.part[6] + 1) % 3);
  EXPECT_EQ(state.journal_size(), 0u);
}

TEST(PartitionStateRollbackWindow, UndoRefusesAJournalRebasedByARebuild) {
  SplitMix64 rng(29);
  const Graph g = random_geometric_graph(80, 0.2, 4);
  Partitioning p = random_partitioning(g.num_vertices(), 2, rng);
  PartitionState state(g, p);
  {
    PartitionState::RollbackWindow window(state);
    state.move_vertex(g, p, 0, 1 - p.part[0]);
    state.rebuild(g, p);
    EXPECT_THROW(window.undo(g, p), CheckError);
  }
  // Closing the outermost window clears the rebased flag: a new window
  // undoes normally.
  const Partitioning p_entry = p;
  PartitionState::RollbackWindow window(state);
  state.move_vertex(g, p, 1, 1 - p.part[1]);
  window.undo(g, p);
  EXPECT_EQ(p.part, p_entry.part);
}

TEST(PartitionState, ZeroTotalWeightFallsBackToImbalanceOne) {
  GraphBuilder b;
  const VertexId a = b.add_vertex(0.0);
  const VertexId c = b.add_vertex(0.0);
  b.add_edge(a, c, 1.0);
  const Graph g = b.build();

  Partitioning p;
  p.num_parts = 2;
  p.part = {0, 1};

  const PartitionState state(g, p);
  EXPECT_EQ(state.imbalance(), 1.0);
  const PartitionMetrics m = state.snapshot();
  EXPECT_EQ(m.imbalance, 1.0);
  EXPECT_EQ(m.avg_weight, 0.0);
  // Batch and incremental definitions agree on the fallback.
  EXPECT_EQ(compute_metrics(g, p).imbalance, 1.0);
  EXPECT_EQ(m.cut_total, 1.0);
}

}  // namespace
}  // namespace pigp::graph
