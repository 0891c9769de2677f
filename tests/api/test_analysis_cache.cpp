// Differential test of the vertex-analysis cache that PartitionState keeps
// across rebalances.
//
// One churn script (vertex and edge removals, hub deletions, preferential
// attachment of new vertices, explicit deferred compactions) drives two
// sessions at once:
//
//   * the live session, whose backend reads and refills the analyses its
//     state carried over from earlier rebalances;
//   * a cold twin, whose backend runs the same engine on a freshly rebuilt
//     PartitionState before every rebalance — every analysis slot invalid,
//     so every seed label and every refinement move is computed from
//     scratch — and folds the result into the session's state.
//
// Every rebalance must make the same decisions on both, and the live
// session must analyse no more than the twin.  The first rebalance after a
// compaction must seed well under its boundary from fresh analyses, which
// shows that the remap carried them: the twin analyses every seed, and so
// would a remap that dropped the cache.  (Refinement's count cannot show
// it: the stage's reseed has already refilled the cache on both sides.)

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "api/backend.hpp"
#include "api/session.hpp"
#include "graph/builder.hpp"
#include "graph/delta.hpp"
#include "spectral/partitioners.hpp"
#include "support/rng.hpp"

namespace pigp {
namespace {

using graph::Graph;
using graph::GraphDelta;
using graph::Partitioning;
using graph::VertexId;

/// Runs \p inner on a cold copy of the state: rebuilt from the entry
/// assignment, so no cached analysis survives.  The session's own state
/// then moves to the result vertex by vertex.
class ColdStateBackend final : public Backend {
 public:
  explicit ColdStateBackend(std::unique_ptr<Backend> inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return "cold-state";
  }

  [[nodiscard]] BackendResult repartition(const Graph& g_new,
                                          Partitioning& partitioning,
                                          VertexId n_old,
                                          graph::PartitionState& state,
                                          core::Workspace& ws) override {
    Partitioning entry = partitioning;
    entry.part.resize(static_cast<std::size_t>(g_new.num_vertices()),
                      graph::kUnassigned);
    graph::PartitionState cold;
    cold.rebuild(g_new, entry);
    BackendResult result =
        inner_->repartition(g_new, partitioning, n_old, cold, ws);
    state.transition(g_new, entry, partitioning);
    return result;
  }

 private:
  std::unique_ptr<Backend> inner_;
};

void register_cold_backends() {
  static const bool once = [] {
    for (const std::string inner : {"igpr", "spmd"}) {
      BackendRegistry::global().add(
          "cold:" + inner, [inner](const ResolvedConfig& config) {
            return std::make_unique<ColdStateBackend>(
                BackendRegistry::global().create(inner, config));
          });
    }
    return true;
  }();
  (void)once;
}

/// Preferential attachment: each new vertex links to \p m distinct earlier
/// endpoints drawn proportionally to degree, so a few vertices become hubs.
Graph hub_graph(int n, int m, std::uint64_t seed) {
  SplitMix64 rng(seed);
  graph::GraphBuilder b(n);
  std::vector<VertexId> ends;
  for (int v = 1; v <= m; ++v) {
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

SessionConfig churn_config(const std::string& backend) {
  SessionConfig c;
  c.num_parts = 6;
  c.backend = backend;
  c.spmd_ranks = 2;
  c.batch_policy = BatchPolicy::vertex_count;
  c.batch_vertex_limit = 8;
  c.graph_compaction = GraphCompaction::deferred;
  c.compaction_slack = 1.0;  // compact() only where the script says so
  return c;
}

/// One step of the churn script, in the deferred id space of \p g (dead
/// ids stay until a compaction).  Unit weights keep every maintained
/// aggregate an exact integer, so the twins' reports compare with ==.
GraphDelta churn_delta(const Graph& g, int step, SplitMix64& rng) {
  const VertexId n = g.num_vertices();
  std::set<VertexId> removed;
  if (step % 6 == 4) {  // hub deletion
    VertexId hub = -1;
    for (VertexId v = 0; v < n; ++v) {
      if (g.is_live(v) && (hub < 0 || g.degree(v) > g.degree(hub))) hub = v;
    }
    removed.insert(hub);
  }
  for (int i = static_cast<int>(rng.next_below(3)); i > 0; --i) {
    const auto v = static_cast<VertexId>(
        rng.next_below(static_cast<std::uint64_t>(n)));
    if (g.is_live(v)) removed.insert(v);
  }
  const auto survivor = [&] {
    for (;;) {
      const auto v = static_cast<VertexId>(
          rng.next_below(static_cast<std::uint64_t>(n)));
      if (g.is_live(v) && removed.count(v) == 0) return v;
    }
  };

  GraphDelta delta;
  delta.removed_vertices.assign(removed.begin(), removed.end());
  std::set<std::pair<VertexId, VertexId>> cut;
  for (int i = 0; i < 3; ++i) {
    const VertexId u = survivor();
    const auto nbrs = g.neighbors(u);
    if (nbrs.empty()) continue;
    const VertexId v = nbrs[rng.next_below(nbrs.size())];
    if (removed.count(v) == 0) cut.insert(graph::canonical_edge(u, v));
  }
  delta.removed_edges.assign(cut.begin(), cut.end());
  // New vertices attach to an endpoint of a random edge: degree-biased,
  // like the hub graph itself.
  for (int i = 0; i < 3; ++i) {
    graph::VertexAddition add;
    for (int k = 0; k < 2; ++k) {
      const VertexId u = survivor();
      const auto nbrs = g.neighbors(u);
      VertexId end = u;
      if (!nbrs.empty()) end = nbrs[rng.next_below(nbrs.size())];
      if (removed.count(end) != 0) end = u;
      const bool fresh = std::none_of(
          add.edges.begin(), add.edges.end(),
          [end](const auto& e) { return e.first == end; });
      if (fresh) add.edges.emplace_back(end, 1.0);
    }
    delta.added_vertices.push_back(std::move(add));
  }
  for (int i = 0; i < 2; ++i) {
    const VertexId u = survivor();
    const VertexId v = survivor();
    if (u != v && !g.has_edge(u, v) &&
        cut.count(graph::canonical_edge(u, v)) == 0) {
      delta.added_edges.emplace_back(u, v);
    }
  }
  return delta;
}

std::int64_t boundary_size(const Session& s) {
  std::int64_t total = 0;
  for (graph::PartId q = 0; q < s.config().num_parts; ++q) {
    total += static_cast<std::int64_t>(
        s.partition_state().boundary_vertices(q).size());
  }
  return total;
}

class AnalysisCacheDifferential
    : public ::testing::TestWithParam<const char*> {};

TEST_P(AnalysisCacheDifferential, RebalancesMatchAColdStateTwin) {
  register_cold_backends();
  const std::string backend = GetParam();
  const Graph base = hub_graph(900, 3, 0x5eed);
  const Partitioning initial =
      spectral::recursive_graph_bisection(base, 6);
  Session live(churn_config(backend), base, initial);
  Session cold(churn_config("cold:" + backend), base, initial);

  SplitMix64 rng(0xcafe);
  int rebalances = 0;
  int checked_after_compaction = 0;
  bool compacted = false;
  for (int step = 0; step < 60; ++step) {
    SCOPED_TRACE(backend + " step " + std::to_string(step));
    if (step % 9 == 8) {
      ASSERT_EQ(live.compact(), cold.compact());
      compacted = true;
    }
    const GraphDelta delta = churn_delta(live.graph(), step, rng);
    const std::int64_t boundary = boundary_size(live);
    const SessionReport a = live.apply(delta);
    const SessionReport b = cold.apply(delta);

    ASSERT_EQ(a.repartitioned, b.repartitioned);
    ASSERT_EQ(live.partitioning().part, cold.partitioning().part);
    EXPECT_EQ(a.metrics.cut_total, b.metrics.cut_total);
    EXPECT_EQ(a.metrics.cut_max, b.metrics.cut_max);
    EXPECT_EQ(a.metrics.cut_min, b.metrics.cut_min);
    EXPECT_EQ(a.metrics.max_weight, b.metrics.max_weight);
    EXPECT_EQ(a.metrics.min_weight, b.metrics.min_weight);
    EXPECT_EQ(a.metrics.imbalance, b.metrics.imbalance);
    if (!a.repartitioned) continue;
    ++rebalances;

    EXPECT_EQ(a.balance.balanced, b.balance.balanced);
    EXPECT_EQ(a.balance.stages.size(), b.balance.stages.size());
    EXPECT_EQ(a.refine.rounds, b.refine.rounds);
    EXPECT_EQ(a.refine.rounds_reverted, b.refine.rounds_reverted);
    EXPECT_EQ(a.refine.vertices_moved, b.refine.vertices_moved);
    EXPECT_EQ(a.refine.cut_after, b.refine.cut_after);
    EXPECT_LE(a.balance.seeds_analyzed, b.balance.seeds_analyzed);
    EXPECT_LE(a.refine.vertices_analyzed, b.refine.vertices_analyzed);
    if (compacted && !a.balance.stages.empty()) {
      // The live session re-analyses what the deltas since the last
      // rebalance touched, plus the seeds whose hashed tie-break read a
      // renumbered id (about half of this boundary).
      EXPECT_LT(4 * a.balance.seeds_analyzed, 3 * boundary)
          << "analyses did not survive the compaction";
      ++checked_after_compaction;
      compacted = false;
    }
  }
  EXPECT_GE(rebalances, 20);
  EXPECT_GE(checked_after_compaction, 4);
}

INSTANTIATE_TEST_SUITE_P(Backends, AnalysisCacheDifferential,
                         ::testing::Values("igpr", "spmd"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

}  // namespace
}  // namespace pigp
