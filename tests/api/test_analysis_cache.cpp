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
// compaction must seed from under a quarter of its boundary, like any
// other, which shows that the remap carried every analysis: the twin
// analyses every seed, and so would a remap that dropped the cache.  (The
// seed tie-break hashes the vertex key, which the compaction keeps, so no
// renumbered analysis goes stale.  Refinement's count cannot show it: the
// stage's reseed has already refilled the cache on both sides.)
//
// The same pair of backends then runs behind two AsyncSessions.  There the
// rebalance runs on the rear thread's snapshot, so the cache helps only if
// each commit hands the rear's analysed state back to the front: every
// rebalance but the first must seed from under a quarter of its boundary,
// and never more than the cold twin.  The one after the compaction is the
// exception: its delta removes 120 vertices at once, whose neighbours
// must be re-analysed, so it must only seed from under half.
//
// Last, compaction is decision-neutral.  The churn script drives an eager
// session, which compacts after every delta with a removal, and a deferred
// one that compacts only at scripted steps, so its dead ids pile up in
// between.  The script is written in the eager id space and translated
// through the live rank (eager id i is the deferred session's i-th live
// id); after every apply the two partitionings, read in live rank order,
// must be equal.  They are because the seed tie-break hashes the vertex
// key, which every compaction keeps; a tie-break on the id would split
// the sessions as soon as their ids diverge.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "api/async_session.hpp"
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

std::int64_t boundary_size(const graph::PartitionState& state) {
  std::int64_t total = 0;
  for (graph::PartId q = 0; q < state.num_parts(); ++q) {
    total += static_cast<std::int64_t>(state.boundary_vertices(q).size());
  }
  return total;
}

/// What one rebalance analysed, against the boundary it started from.
struct RebalanceRecord {
  std::int64_t seeds_analyzed = 0;
  std::int64_t boundary = 0;
};

/// Rebalances of each "rec:" backend, by backend name, in run order.
/// Written on AsyncSession's rear thread, read by the test after flush().
std::mutex records_mutex;
std::map<std::string, std::vector<RebalanceRecord>> records;

/// Runs \p inner and records its seed analyses under \p log.
class RecordingBackend final : public Backend {
 public:
  RecordingBackend(std::string log, std::unique_ptr<Backend> inner)
      : log_(std::move(log)), inner_(std::move(inner)) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return "recording";
  }

  [[nodiscard]] BackendResult repartition(const Graph& g_new,
                                          Partitioning& partitioning,
                                          VertexId n_old,
                                          graph::PartitionState& state,
                                          core::Workspace& ws) override {
    const std::int64_t boundary = boundary_size(state);
    BackendResult result =
        inner_->repartition(g_new, partitioning, n_old, state, ws);
    const std::lock_guard<std::mutex> lock(records_mutex);
    records[log_].push_back({result.balance_result.seeds_analyzed, boundary});
    return result;
  }

 private:
  std::string log_;
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
      for (const std::string& recorded : {inner, "cold:" + inner}) {
        BackendRegistry::global().add(
            "rec:" + recorded, [recorded](const ResolvedConfig& config) {
              return std::make_unique<RecordingBackend>(
                  "rec:" + recorded,
                  BackendRegistry::global().create(recorded, config));
            });
      }
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

/// AsyncSession has no compact(): its run compacts once, when one large
/// removal delta pushes the adjacency slack past this fraction (the
/// script's churn reaches 0.40 before that delta and 0.53 with it).
constexpr double kAsyncSlack = 0.45;

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
    const std::int64_t boundary = boundary_size(live.partition_state());
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
      // The live session re-analyses only what the deltas since the last
      // rebalance touched: the compaction invalidated nothing.
      EXPECT_LT(4 * a.balance.seeds_analyzed, boundary)
          << "analyses did not survive the compaction";
      ++checked_after_compaction;
      compacted = false;
    }
  }
  EXPECT_GE(rebalances, 20);
  EXPECT_GE(checked_after_compaction, 4);
}

/// One removal delta of about \p count live vertices of \p g, evenly
/// spread over the id space.
GraphDelta purge_delta(const Graph& g, int count) {
  GraphDelta delta;
  const VertexId stride = g.num_vertices() / count;
  for (VertexId v = 0; v < g.num_vertices(); v += stride) {
    if (g.is_live(v)) delta.removed_vertices.push_back(v);
  }
  return delta;
}

TEST_P(AnalysisCacheDifferential, AsyncRebalancesStartWarm) {
  register_cold_backends();
  const std::string backend = GetParam();
  const std::string warm_name = "rec:" + backend;
  const std::string cold_name = "rec:cold:" + backend;
  {
    const std::lock_guard<std::mutex> lock(records_mutex);
    records[warm_name].clear();
    records[cold_name].clear();
  }
  const Graph base = hub_graph(900, 3, 0x5eed);
  // Start from a rebalanced partitioning: the first rebalance of a fresh
  // bisection refines a third of the boundary away, and the one after it
  // would re-analyse all of that, warm or not.
  Session settle(churn_config(backend), base,
                 spectral::recursive_graph_bisection(base, 6));
  (void)settle.repartition();
  const Partitioning initial = settle.partitioning();
  SessionConfig config = churn_config(warm_name);
  config.compaction_slack = kAsyncSlack;
  AsyncSession warm(config, base, initial);
  config.backend = cold_name;
  AsyncSession cold(config, base, initial);
  // The same deltas on a session that never rebalances: it compacts
  // exactly when the async fronts do, and its graph is the id space the
  // next delta is written in.
  config.backend = backend;
  config.batch_vertex_limit = 1000000;
  Session mirror(config, base, initial);

  SplitMix64 rng(0xf00d);
  std::vector<bool> after_compaction;
  int compactions = 0;
  for (int step = 0; step < 40; ++step) {
    SCOPED_TRACE(backend + " async step " + std::to_string(step));
    const GraphDelta delta = step == 24
                                 ? purge_delta(mirror.graph(), 120)
                                 : churn_delta(mirror.graph(), step, rng);
    const bool compacted = mirror.apply(delta).compacted;
    compactions += compacted ? 1 : 0;
    warm.submit(delta);
    warm.flush();
    cold.submit(delta);
    cold.flush();
    after_compaction.push_back(compacted);

    const std::shared_ptr<const PartitionView> a = warm.view();
    const std::shared_ptr<const PartitionView> b = cold.view();
    ASSERT_EQ(a->assignment(), b->assignment());
    EXPECT_EQ(a->summary().cut_total, b->summary().cut_total);
    EXPECT_EQ(a->summary().cut_max, b->summary().cut_max);
    EXPECT_EQ(a->summary().cut_min, b->summary().cut_min);
    EXPECT_EQ(a->summary().max_weight, b->summary().max_weight);
    EXPECT_EQ(a->summary().min_weight, b->summary().min_weight);
    EXPECT_EQ(a->summary().imbalance, b->summary().imbalance);
  }
  EXPECT_EQ(compactions, 1);
  EXPECT_EQ(warm.stats().commits_discarded, 0);
  warm.close();
  cold.close();

  const std::lock_guard<std::mutex> lock(records_mutex);
  const std::vector<RebalanceRecord>& live = records[warm_name];
  const std::vector<RebalanceRecord>& twin = records[cold_name];
  // flush() after every submit: exactly one rebalance per delta.
  ASSERT_EQ(live.size(), after_compaction.size());
  ASSERT_EQ(twin.size(), after_compaction.size());
  for (std::size_t i = 0; i < live.size(); ++i) {
    SCOPED_TRACE(backend + " async rebalance " + std::to_string(i));
    EXPECT_EQ(live[i].boundary, twin[i].boundary);
    EXPECT_LE(live[i].seeds_analyzed, twin[i].seeds_analyzed);
    if (after_compaction[i]) {
      EXPECT_LT(2 * live[i].seeds_analyzed, live[i].boundary)
          << "analyses did not survive the compaction";
    } else if (i > 0) {
      EXPECT_LT(4 * live[i].seeds_analyzed, live[i].boundary)
          << "the rear started cold";
    }
  }
}

/// The live ids of \p g in ascending order: entry i is eager id i.
std::vector<VertexId> live_ids(const Graph& g) {
  std::vector<VertexId> ids;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (g.is_live(v)) ids.push_back(v);
  }
  return ids;
}

/// \p delta, written in the eager id space, in the deferred space of
/// \p g: old ids through their live rank, additions after the id space.
GraphDelta translate(const GraphDelta& delta, const Graph& g,
                     VertexId eager_n) {
  const std::vector<VertexId> live = live_ids(g);
  const auto id = [&](VertexId v) {
    return v < eager_n ? live[static_cast<std::size_t>(v)]
                       : g.num_vertices() + (v - eager_n);
  };
  GraphDelta out;
  for (const VertexId v : delta.removed_vertices) {
    out.removed_vertices.push_back(id(v));
  }
  for (const auto& [u, v] : delta.removed_edges) {
    out.removed_edges.emplace_back(id(u), id(v));
  }
  for (const graph::VertexAddition& add : delta.added_vertices) {
    graph::VertexAddition moved{add.weight, {}};
    for (const auto& [u, w] : add.edges) moved.edges.emplace_back(id(u), w);
    out.added_vertices.push_back(std::move(moved));
  }
  for (const auto& [u, v] : delta.added_edges) {
    out.added_edges.emplace_back(id(u), id(v));
  }
  out.added_edge_weights = delta.added_edge_weights;
  return out;
}

TEST_P(AnalysisCacheDifferential, EagerAndDeferredCompactionPartitionAlike) {
  const std::string backend = GetParam();
  const Graph base = hub_graph(900, 3, 0x7e57);
  const Partitioning initial =
      spectral::recursive_graph_bisection(base, 6);
  SessionConfig config = churn_config(backend);
  Session deferred(config, base, initial);
  config.graph_compaction = GraphCompaction::eager;
  Session eager(config, base, initial);

  SplitMix64 rng(0xbeef);
  int rebalances = 0;
  int compactions = 0;
  for (int step = 0; step < 60; ++step) {
    SCOPED_TRACE(backend + " step " + std::to_string(step));
    if (step % 13 == 12) (void)deferred.compact();
    const GraphDelta delta = churn_delta(eager.graph(), step, rng);
    const GraphDelta def_delta =
        translate(delta, deferred.graph(), eager.graph().num_vertices());
    const SessionReport a = eager.apply(delta);
    const SessionReport b = deferred.apply(def_delta);

    ASSERT_FALSE(b.compacted);
    ASSERT_EQ(a.repartitioned, b.repartitioned);
    std::vector<graph::PartId> live_parts;
    for (const VertexId v : live_ids(deferred.graph())) {
      live_parts.push_back(
          deferred.partitioning().part[static_cast<std::size_t>(v)]);
    }
    ASSERT_EQ(eager.partitioning().part, live_parts);
    EXPECT_EQ(a.metrics.cut_total, b.metrics.cut_total);
    EXPECT_EQ(a.metrics.max_weight, b.metrics.max_weight);
    EXPECT_EQ(a.metrics.imbalance, b.metrics.imbalance);
    rebalances += a.repartitioned ? 1 : 0;
    compactions += a.compacted ? 1 : 0;
  }
  EXPECT_GE(rebalances, 20);
  EXPECT_GE(compactions, 30);
}

INSTANTIATE_TEST_SUITE_P(Backends, AnalysisCacheDifferential,
                         ::testing::Values("igpr", "spmd"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

}  // namespace
}  // namespace pigp
