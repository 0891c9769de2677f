// Step 2: the layering algorithm of Figure 3 (§2.2).

#include "core/layering.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/transfer.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/partition_state.hpp"
#include "support/rng.hpp"

namespace pigp::core {
namespace {

using graph::Graph;
using graph::GraphBuilder;
using graph::Partitioning;
using graph::VertexId;

TEST(Layering, ZeroWeightBoundaryEdgesLeaveVerticesUnlabeled) {
  // Vertices {0,1} in partition 0, {2} in partition 1; the only cross edge
  // {0,2} has weight zero.  Vertex 0 is structurally boundary but carries
  // no label (all-zero tally), and vertex 1 — reachable only through the
  // unlabeled vertex 0 — must also stay unlabeled instead of reading a
  // tally slot at index -1 (regression: heap overflow under ASan).
  GraphBuilder b(3);
  b.add_edge(0, 2, 0.0);
  b.add_edge(0, 1, 1.0);
  const Graph g = b.build();
  Partitioning p;
  p.num_parts = 2;
  p.part = {0, 0, 1};

  const LayeringResult r = layer_partitions(g, p);
  EXPECT_EQ(r.label[0], -1);
  EXPECT_EQ(r.layer[0], 0);  // structurally boundary
  EXPECT_EQ(r.label[1], -1);
  EXPECT_EQ(r.label[2], -1);
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t j = 0; j < 2; ++j) {
      EXPECT_EQ(r.eps(i, j), 0);
    }
  }

  // The boundary-seeded path agrees bit for bit.
  const graph::PartitionState state(g, p);
  const LayeringResult boundary = layer_partitions_from(g, p, state);
  EXPECT_EQ(boundary.label, r.label);
  EXPECT_EQ(boundary.layer, r.layer);
  EXPECT_EQ(boundary.eps, r.eps);
}

TEST(Layering, DeadIdsAwaitingCompactionAreNotMembers) {
  // graph_compaction=deferred leaves removed vertices as dead ids assigned
  // kUnassigned until the next compact(); Partitioning::validate accepts
  // them.  The member scan behind layer_partitions, the boundary-seeded
  // layering and apply_balance_transfers must skip them instead of
  // indexing partition -1 (regression: heap overflow under ASan).
  Graph g = graph::grid_graph(4, 4);
  Partitioning p;
  p.num_parts = 2;
  p.part.resize(16);
  for (VertexId v = 0; v < 16; ++v) {
    p.part[static_cast<std::size_t>(v)] = (v % 4) < 2 ? 0 : 1;
  }
  for (const VertexId dead : {0, 7, 9}) {
    g.remove_vertex(dead);
    p.part[static_cast<std::size_t>(dead)] = graph::kUnassigned;
  }
  p.validate(g);

  const auto members = partition_members(p);
  ASSERT_EQ(members.size(), 2U);
  EXPECT_EQ(members[0], (std::vector<VertexId>{1, 4, 5, 8, 12, 13}));
  EXPECT_EQ(members[1], (std::vector<VertexId>{2, 3, 6, 10, 11, 14, 15}));

  const LayeringResult r = layer_partitions(g, p);
  for (const VertexId dead : {0, 7, 9}) {
    EXPECT_EQ(r.label[static_cast<std::size_t>(dead)], -1);
    EXPECT_EQ(r.layer[static_cast<std::size_t>(dead)], -1);
  }
  EXPECT_EQ(r.eps(1, 0), 7);  // every live vertex of 1 reaches 0

  graph::PartitionState state(g, p);
  BoundaryLayering layering(g, p);
  layering.reseed(state);
  layering.grow(-1);
  EXPECT_EQ(layering.label(), r.label);
  EXPECT_EQ(layering.layer(), r.layer);
  EXPECT_EQ(layering.eps(), r.eps);

  pigp::DenseMatrix<std::int64_t> moves(2, 2, 0);
  moves(1, 0) = 1;
  apply_balance_transfers(g, p, layering, moves, state);
  p.validate(g);
  const auto after = partition_members(p);
  EXPECT_EQ(after[0].size(), 7U);
  EXPECT_EQ(after[1].size(), 6U);
  for (const VertexId dead : {0, 7, 9}) {
    EXPECT_EQ(p.part[static_cast<std::size_t>(dead)], graph::kUnassigned);
  }
}

TEST(Layering, TwoBlockPathLabelsTowardTheOtherSide) {
  // Path 0-1-2-3-4-5 split {0,1,2 | 3,4,5}: every vertex's closest outside
  // partition is the other one; layers count distance to the boundary.
  const Graph g = graph::path_graph(6);
  Partitioning p;
  p.num_parts = 2;
  p.part = {0, 0, 0, 1, 1, 1};
  const LayeringResult r = layer_partitions(g, p);

  for (int v = 0; v < 3; ++v) {
    EXPECT_EQ(r.label[static_cast<std::size_t>(v)], 1) << v;
  }
  for (int v = 3; v < 6; ++v) {
    EXPECT_EQ(r.label[static_cast<std::size_t>(v)], 0) << v;
  }
  EXPECT_EQ(r.layer[2], 0);  // boundary
  EXPECT_EQ(r.layer[1], 1);
  EXPECT_EQ(r.layer[0], 2);
  EXPECT_EQ(r.layer[3], 0);
  EXPECT_EQ(r.layer[5], 2);

  EXPECT_EQ(r.eps(0, 1), 3);
  EXPECT_EQ(r.eps(1, 0), 3);
  EXPECT_EQ(r.eps(0, 0), 0);
}

TEST(Layering, BoundaryTagFollowsMajorityEdgeCount) {
  // Vertex 0 (part 0) has two edges into part 2 and one into part 1: its
  // label must be 2.
  GraphBuilder b(4);
  b.add_edge(0, 1);  // part 1
  b.add_edge(0, 2);  // part 2
  b.add_edge(0, 3);  // part 2
  const Graph g = b.build();
  Partitioning p;
  p.num_parts = 3;
  p.part = {0, 1, 2, 2};
  const LayeringResult r = layer_partitions(g, p);
  EXPECT_EQ(r.label[0], 2);
  EXPECT_EQ(r.eps(0, 2), 1);
  EXPECT_EQ(r.eps(0, 1), 0);
}

TEST(Layering, MajorityTieBreaksToSmallerPartition) {
  GraphBuilder b(3);
  b.add_edge(0, 1);  // part 2
  b.add_edge(0, 2);  // part 1
  const Graph g = b.build();
  Partitioning p;
  p.num_parts = 3;
  p.part = {0, 2, 1};
  const LayeringResult r = layer_partitions(g, p);
  EXPECT_EQ(r.label[0], 1);  // tie between 1 and 2 -> smaller id
}

TEST(Layering, EdgeWeightsDriveTheMajority) {
  GraphBuilder b(3);
  b.add_edge(0, 1, 5.0);  // heavy edge into part 2
  b.add_edge(0, 2, 1.0);  // light edge into part 1
  const Graph g = b.build();
  Partitioning p;
  p.num_parts = 3;
  p.part = {0, 2, 1};
  const LayeringResult r = layer_partitions(g, p);
  EXPECT_EQ(r.label[0], 2);
}

TEST(Layering, InnerLayersInheritFromPreviousLayer) {
  // Grid strip: part 0 is a 3x3 block neighboring part 1 on the right.
  // Column x=2 is layer 0, x=1 layer 1, x=0 layer 2, all labeled 1.
  const Graph g = graph::grid_graph(3, 6);
  Partitioning p;
  p.num_parts = 2;
  p.part.assign(18, 0);
  for (int r = 0; r < 3; ++r) {
    for (int c = 3; c < 6; ++c) {
      p.part[static_cast<std::size_t>(r * 6 + c)] = 1;
    }
  }
  const LayeringResult res = layer_partitions(g, p);
  for (int r = 0; r < 3; ++r) {
    EXPECT_EQ(res.layer[static_cast<std::size_t>(r * 6 + 2)], 0);
    EXPECT_EQ(res.layer[static_cast<std::size_t>(r * 6 + 1)], 1);
    EXPECT_EQ(res.layer[static_cast<std::size_t>(r * 6 + 0)], 2);
    for (int c = 0; c < 3; ++c) {
      EXPECT_EQ(res.label[static_cast<std::size_t>(r * 6 + c)], 1);
    }
  }
  EXPECT_EQ(res.eps(0, 1), 9);
  EXPECT_EQ(res.eps(1, 0), 9);
}

TEST(Layering, EpsRowSumsEqualPartitionSizesWhenConnected) {
  const Graph g = graph::random_geometric_graph(800, 0.06, 41);
  Partitioning p;
  p.num_parts = 8;
  p.part.resize(800);
  for (VertexId v = 0; v < 800; ++v) {
    p.part[static_cast<std::size_t>(v)] = v % 8;
  }
  const LayeringResult r = layer_partitions(g, p);
  // Every labeled vertex contributes to exactly one eps entry.
  std::vector<std::int64_t> labeled(8, 0);
  for (VertexId v = 0; v < 800; ++v) {
    if (r.label[static_cast<std::size_t>(v)] >= 0) {
      ++labeled[static_cast<std::size_t>(p.part[static_cast<std::size_t>(v)])];
    }
  }
  for (int q = 0; q < 8; ++q) {
    std::int64_t row_sum = 0;
    for (int j = 0; j < 8; ++j) {
      row_sum += r.eps(static_cast<std::size_t>(q), static_cast<std::size_t>(j));
    }
    EXPECT_EQ(row_sum, labeled[static_cast<std::size_t>(q)]);
  }
}

TEST(Layering, InteriorOnlyPartitionStaysUnlabeled) {
  // Two disconnected edges in different partitions: no cross edges at all,
  // so nothing can be labeled.
  GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(2, 3);
  const Graph g = b.build();
  Partitioning p;
  p.num_parts = 2;
  p.part = {0, 0, 1, 1};
  const LayeringResult r = layer_partitions(g, p);
  for (int v = 0; v < 4; ++v) {
    EXPECT_EQ(r.label[static_cast<std::size_t>(v)], -1);
    EXPECT_EQ(r.layer[static_cast<std::size_t>(v)], -1);
  }
  EXPECT_EQ(r.eps(0, 1), 0);
}

TEST(Layering, MatchesPaperFigure4Shape) {
  // Reproduce the microscopic structure of Figure 4(a): a partition whose
  // vertices peel layer by layer toward the closest neighbor partitions.
  const Graph g = graph::grid_graph(6, 6);
  Partitioning p;
  p.num_parts = 4;
  p.part.resize(36);
  for (int r = 0; r < 6; ++r) {
    for (int c = 0; c < 6; ++c) {
      p.part[static_cast<std::size_t>(r * 6 + c)] =
          (r < 3 ? 0 : 2) + (c < 3 ? 0 : 1);
    }
  }
  const LayeringResult res = layer_partitions(g, p);
  // Corner vertex of each quadrant block touching the two neighbors has
  // layer 0; the far corner has the deepest layer (2 within a 3x3 block).
  EXPECT_EQ(res.layer[0], 2);   // (0,0): farthest from other partitions
  EXPECT_EQ(res.layer[14], 0);  // (2,2): touches both neighbors
  // All vertices are labeled (grid is connected).
  for (int v = 0; v < 36; ++v) {
    EXPECT_GE(res.label[static_cast<std::size_t>(v)], 0);
  }
}

// ---------------------------------------------------------------------------
// Differential test against a dense-tally reference: the layering's sparse
// PartTally must reproduce, vote for vote, the P-length buffer it replaced.

/// The layering's tie-spreading hash (murmur3 finalizer), copied.
std::uint64_t reference_mix(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDULL;
  x ^= x >> 33;
  x *= 0xC4CEB9FE1A85EC53ULL;
  x ^= x >> 33;
  return x;
}

/// Coverage of the votes the reference cast.
struct VoteCoverage {
  /// [width][inner]: ties of 3 or 4 parts whose first-touch (neighbour)
  /// order was not ascending in part id, at seeding and deeper.
  int out_of_order_ties[5][2] = {};
  /// Seeds whose external edges all weigh zero: boundary, yet unlabeled.
  int zero_weight_seeds = 0;
};

/// Dense vote: largest sum, ties to the mix(v) % count-th tied part in
/// ascending id.  \p touch_order lists the parts in first-touch order.
graph::PartId reference_vote(const std::vector<double>& tally,
                             const std::vector<graph::PartId>& touch_order,
                             VertexId v, bool inner, VoteCoverage& cov) {
  double best = 0.0;
  for (const double t : tally) best = std::max(best, t);
  if (best <= 0.0) return -1;
  std::vector<graph::PartId> tied;
  for (std::size_t q = 0; q < tally.size(); ++q) {
    if (tally[q] == best) tied.push_back(static_cast<graph::PartId>(q));
  }
  if (tied.size() >= 3 && tied.size() <= 4) {
    std::vector<graph::PartId> touched_tied;
    for (const graph::PartId q : touch_order) {
      if (tally[static_cast<std::size_t>(q)] == best) touched_tied.push_back(q);
    }
    if (!std::is_sorted(touched_tied.begin(), touched_tied.end())) {
      ++cov.out_of_order_ties[tied.size()][inner ? 1 : 0];
    }
  }
  return tied[reference_mix(static_cast<std::uint64_t>(v)) % tied.size()];
}

/// Figure 3 with a dense P-length tally per vote: member-scan seeding,
/// then level-by-level growth, each level labelled in ascending id.
LayeringResult reference_layering(const Graph& g, const Partitioning& p,
                                  VoteCoverage& cov) {
  const auto n = static_cast<std::size_t>(g.num_vertices());
  const auto parts = static_cast<std::size_t>(p.num_parts);
  LayeringResult r;
  r.label.assign(n, -1);
  r.layer.assign(n, -1);
  r.eps = pigp::DenseMatrix<std::int64_t>(parts, parts, 0);
  std::vector<double> tally(parts);
  std::vector<graph::PartId> touch_order;
  const auto add = [&](graph::PartId q, double w) {
    if (std::find(touch_order.begin(), touch_order.end(), q) ==
        touch_order.end()) {
      touch_order.push_back(q);
    }
    tally[static_cast<std::size_t>(q)] += w;
  };
  for (graph::PartId target = 0; target < p.num_parts; ++target) {
    const auto ti = static_cast<std::size_t>(target);
    std::vector<VertexId> frontier;
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      if (p.part[static_cast<std::size_t>(v)] != target) continue;
      std::fill(tally.begin(), tally.end(), 0.0);
      touch_order.clear();
      const auto nbrs = g.neighbors(v);
      const auto w = g.incident_edge_weights(v);
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        const graph::PartId q = p.part[static_cast<std::size_t>(nbrs[i])];
        if (q != target) add(q, w[i]);
      }
      if (touch_order.empty()) continue;
      const graph::PartId best = reference_vote(tally, touch_order, v,
                                                false, cov);
      if (best < 0) ++cov.zero_weight_seeds;
      r.label[static_cast<std::size_t>(v)] = best;
      r.layer[static_cast<std::size_t>(v)] = 0;
      if (best >= 0) ++r.eps(ti, static_cast<std::size_t>(best));
      frontier.push_back(v);
    }
    for (std::int32_t level = 0; !frontier.empty(); ++level) {
      std::vector<VertexId> next;
      for (const VertexId u : frontier) {
        for (const VertexId w : g.neighbors(u)) {
          const auto wi = static_cast<std::size_t>(w);
          if (p.part[wi] == target && r.layer[wi] < 0) {
            r.layer[wi] = level + 1;
            next.push_back(w);
          }
        }
      }
      std::sort(next.begin(), next.end());
      for (const VertexId v : next) {
        std::fill(tally.begin(), tally.end(), 0.0);
        touch_order.clear();
        const auto nbrs = g.neighbors(v);
        const auto w = g.incident_edge_weights(v);
        for (std::size_t i = 0; i < nbrs.size(); ++i) {
          const auto ui = static_cast<std::size_t>(nbrs[i]);
          if (p.part[ui] == target && r.layer[ui] == level &&
              r.label[ui] >= 0) {
            add(r.label[ui], w[i]);
          }
        }
        const graph::PartId best = reference_vote(tally, touch_order, v,
                                                  true, cov);
        r.label[static_cast<std::size_t>(v)] = best;
        if (best >= 0) ++r.eps(ti, static_cast<std::size_t>(best));
      }
      frontier.swap(next);
    }
  }
  return r;
}

/// A side x side grid with diagonals, edge weights drawn from
/// {0, 1, 1, 2} (zero-weight cut edges leave boundary vertices unlabeled),
/// split into bands (parts < 8) or blocks (64 parts) with 10% noise.  For
/// parts >= 5, tie gadgets follow: a part-0 centre whose ascending
/// neighbours carry parts width..1 at weight 1, either directly (a
/// width-way tie at seeding) or through part-0 seeds (the tie one layer
/// deeper) — ties touched in descending part order.
void build_tie_input(int parts, Graph& g, Partitioning& p) {
  const int side = parts >= 64 ? 48 : 24;
  pigp::SplitMix64 rng(static_cast<std::uint64_t>(1000 + parts));
  GraphBuilder b(side * side);
  const auto id = [side](int r, int c) { return r * side + c; };
  const auto weight = [&rng] {
    const std::uint64_t k = rng.next_below(4);
    return k == 0 ? 0.0 : (k == 3 ? 2.0 : 1.0);
  };
  for (int r = 0; r < side; ++r) {
    for (int c = 0; c < side; ++c) {
      if (c + 1 < side) b.add_edge(id(r, c), id(r, c + 1), weight());
      if (r + 1 < side) b.add_edge(id(r, c), id(r + 1, c), weight());
      if (r + 1 < side && c + 1 < side) {
        b.add_edge(id(r, c), id(r + 1, c + 1), weight());
      }
    }
  }
  p.num_parts = parts;
  p.part.resize(static_cast<std::size_t>(side * side));
  for (int r = 0; r < side; ++r) {
    for (int c = 0; c < side; ++c) {
      graph::PartId q = parts >= 64 ? (r * 8 / side) * 8 + c * 8 / side
                                    : c * parts / side;
      if (rng.next_below(10) == 0) {
        q = static_cast<graph::PartId>(
            rng.next_below(static_cast<std::uint64_t>(parts)));
      }
      p.part[static_cast<std::size_t>(id(r, c))] = q;
    }
  }
  const auto vertex_in = [&](graph::PartId q) {
    p.part.push_back(q);
    return b.add_vertex();
  };
  for (int gadget = 0; parts >= 5 && gadget < 24; ++gadget) {
    const int width = 3 + gadget % 2;
    const bool inner = gadget % 4 >= 2;
    if (!inner) {
      const VertexId centre = vertex_in(0);
      for (int k = 0; k < width; ++k) {
        b.add_edge(centre, vertex_in(width - k));
      }
    } else {
      std::vector<VertexId> seeds;
      for (int k = 0; k < width; ++k) seeds.push_back(vertex_in(0));
      for (int k = 0; k < width; ++k) {
        b.add_edge(seeds[static_cast<std::size_t>(k)], vertex_in(width - k));
      }
      const VertexId centre = vertex_in(0);
      for (const VertexId s : seeds) b.add_edge(centre, s);
    }
  }
  g = b.build();
}

TEST(Layering, SparseTallyMatchesDenseReference) {
  for (const int parts : {2, 5, 64}) {
    Graph g;
    Partitioning p;
    build_tie_input(parts, g, p);
    p.validate(g);
    VoteCoverage cov;
    const LayeringResult want = reference_layering(g, p, cov);

    EXPECT_GT(cov.zero_weight_seeds, 0) << parts;
    if (parts >= 5) {
      for (const int width : {3, 4}) {
        for (const int inner : {0, 1}) {
          EXPECT_GT(cov.out_of_order_ties[width][inner], 0)
              << parts << " parts, " << width << "-way, inner " << inner;
        }
      }
    }

    const LayeringResult batch = layer_partitions(g, p);
    EXPECT_EQ(batch.label, want.label) << parts << " parts";
    EXPECT_EQ(batch.layer, want.layer) << parts << " parts";
    EXPECT_EQ(batch.eps, want.eps) << parts << " parts";

    // The boundary-seeded, resumable path, one level per grow().
    const graph::PartitionState state(g, p);
    BoundaryLayering layering(g, p);
    layering.reseed(state);
    while (!layering.exhausted()) layering.grow(1);
    EXPECT_EQ(layering.label(), want.label) << parts << " parts";
    EXPECT_EQ(layering.layer(), want.layer) << parts << " parts";
    EXPECT_EQ(layering.eps(), want.eps) << parts << " parts";
  }
}

}  // namespace
}  // namespace pigp::core
