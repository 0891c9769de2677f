// pigp::Session — the stateful delta-stream API.  The core guarantees:
// a session streaming deltas (insertions *and* deletions) under the
// every_delta policy is bit-identical to hand-chaining the rebuild oracle
// (graph::apply_delta + carry_partitioning) with the flat engine; the
// backend registry round-trips all built-in names; invalid configs are
// rejected with clear errors; and the batch policies trigger exactly at
// their thresholds.

#include "api/session.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <type_traits>

#include "../core/copying_repartition.hpp"
#include "api/errors.hpp"
#include "core/igp.hpp"
#include "graph/builder.hpp"
#include "graph/delta.hpp"
#include "graph/generators.hpp"
#include "mesh/paper_meshes.hpp"
#include "spectral/partitioners.hpp"
#include "support/check.hpp"

namespace pigp {
namespace {

using graph::Graph;
using graph::GraphDelta;
using graph::Partitioning;
using graph::VertexAddition;

/// A delta mixing vertex insertions, vertex deletions, and edge changes,
/// anchored at \p seed-dependent positions of a graph with \p n vertices.
GraphDelta mixed_delta(graph::VertexId n, int step) {
  GraphDelta delta;
  const graph::VertexId a = (7 * step + 1) % (n / 2);
  const graph::VertexId b = n / 2 + (11 * step + 3) % (n / 2);
  for (int i = 0; i < 6 + step; ++i) {
    VertexAddition add;
    add.edges.emplace_back((a + i) % n, 1.0);
    if (i > 0) add.edges.emplace_back(n + i - 1, 1.0);  // chain the new ones
    delta.added_vertices.push_back(add);
  }
  delta.removed_vertices = {b, static_cast<graph::VertexId>((b + 5) % n)};
  if (delta.removed_vertices[0] == delta.removed_vertices[1]) {
    delta.removed_vertices.pop_back();
  }
  return delta;
}

SessionConfig basic_config(graph::PartId parts, const std::string& backend) {
  SessionConfig config;
  config.num_parts = parts;
  config.backend = backend;
  return config;
}

TEST(Session, DeltaStreamMatchesOneShotRepartitionDelta) {
  const mesh::MeshSequence seq = mesh::make_small_mesh_sequence(500, {}, 7);
  const Graph& base = seq.graphs[0];
  const Partitioning initial =
      spectral::recursive_spectral_bisection(base, 8);

  Session session(basic_config(8, "igpr"), base, initial);

  // Reference: the rebuild oracle — a fresh graph per delta, the old
  // assignment carried across the id remap — chained with the flat engine.
  Graph ref_graph = base;
  Partitioning ref_part = initial;

  for (int step = 0; step < 3; ++step) {
    const GraphDelta delta = mixed_delta(ref_graph.num_vertices(), step);

    graph::DeltaResult applied = graph::apply_delta(ref_graph, delta);
    const core::IgpResult ref = test::igp_repartition(
        applied.graph, graph::carry_partitioning(ref_part, applied),
        applied.first_new_vertex);
    ref_graph = std::move(applied.graph);
    ref_part = ref.partitioning;

    const SessionReport report = session.apply(delta);
    EXPECT_TRUE(report.repartitioned);
    ASSERT_EQ(session.graph(), ref_graph) << "step " << step;
    EXPECT_EQ(session.partitioning().part, ref_part.part)
        << "step " << step;
  }
  EXPECT_EQ(session.counters().deltas_applied, 3);
  EXPECT_EQ(session.counters().repartitions, 3);
}

TEST(Session, ApplyExtendedMatchesCoreRepartition) {
  const mesh::MeshSequence seq =
      mesh::make_small_mesh_sequence(600, {60}, 3);
  const Graph& before = seq.graphs[0];
  const Graph& after = seq.graphs[1];
  const Partitioning initial =
      spectral::recursive_spectral_bisection(before, 8);

  const core::IgpResult ref =
      test::igp_repartition(after, initial, before.num_vertices());

  Session session(basic_config(8, "igpr"), before, initial);
  const SessionReport report =
      session.apply_extended(after, before.num_vertices());

  EXPECT_TRUE(report.repartitioned);
  EXPECT_EQ(report.balance.balanced, ref.balance_result.balanced);
  EXPECT_EQ(report.balance.stages.size(), ref.balance_result.stages.size());
  EXPECT_EQ(session.partitioning().part, ref.partitioning.part);
  EXPECT_DOUBLE_EQ(
      report.metrics.cut_total,
      graph::compute_metrics(after, ref.partitioning).cut_total);
}

TEST(Session, BackendRegistryRoundTripsAllBuiltinNames) {
  const ResolvedConfig resolved = basic_config(4, "igpr").resolve();
  for (const std::string name :
       {"igp", "igpr", "multilevel", "spmd", "scratch"}) {
    ASSERT_TRUE(BackendRegistry::global().contains(name)) << name;
    const std::unique_ptr<Backend> backend =
        BackendRegistry::global().create(name, resolved);
    ASSERT_NE(backend, nullptr) << name;
    EXPECT_EQ(backend->name(), name);
    EXPECT_EQ(backend->incremental(), name != "scratch") << name;
  }
  // The listing includes all five names.
  const std::vector<std::string> names = BackendRegistry::global().names();
  for (const char* expected :
       {"igp", "igpr", "multilevel", "spmd", "scratch"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
  }
}

TEST(Session, UnknownBackendRejectedWithKnownNamesListed) {
  const Graph g = graph::random_geometric_graph(200, 0.12, 5);
  try {
    Session session(basic_config(4, "no-such-backend"), g);
    FAIL() << "expected UnknownBackendError";
  } catch (const UnknownBackendError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("no-such-backend"), std::string::npos) << what;
    EXPECT_NE(what.find("igpr"), std::string::npos) << what;
    // The names ride along programmatically, not just in the message.
    const std::vector<std::string>& known = e.known_backends();
    EXPECT_NE(std::find(known.begin(), known.end(), "igpr"), known.end());
  }
  // The taxonomy keeps pre-existing catch sites working: every typed error
  // is a pigp::Error and a pigp::CheckError.
  EXPECT_THROW((Session{basic_config(4, "no-such-backend"), g}), Error);
  EXPECT_THROW((Session{basic_config(4, "no-such-backend"), g}), CheckError);
}

TEST(Session, MoveOperationsAreDeleted) {
  // Regression for an audit finding: the warm workspace's boundary
  // layering holds pointers into the session's graph/partitioning, so a
  // moved Session would leave them dangling unless an internal re-bind
  // happens to run first.  The operations are deleted outright; factory
  // returns still compile through guaranteed copy elision
  // (test_session_alloc.cpp's make_quiescent_session is the living proof).
  static_assert(!std::is_move_constructible_v<Session>);
  static_assert(!std::is_move_assignable_v<Session>);
  static_assert(!std::is_copy_constructible_v<Session>);
  static_assert(!std::is_copy_assignable_v<Session>);
}

TEST(Session, SummaryMatchesFullMetrics) {
  const Graph g = graph::random_geometric_graph(300, 0.1, 37);
  const Partitioning initial = spectral::recursive_graph_bisection(g, 4);
  Session session(basic_config(4, "igpr"), g, initial);
  (void)session.apply(mixed_delta(g.num_vertices(), 0));

  const graph::PartitionSummary summary = session.summary();
  const graph::PartitionMetrics metrics = session.metrics();
  EXPECT_DOUBLE_EQ(summary.cut_total, metrics.cut_total);
  EXPECT_DOUBLE_EQ(summary.imbalance, metrics.imbalance);
  EXPECT_DOUBLE_EQ(summary.max_weight, metrics.max_weight);
  EXPECT_DOUBLE_EQ(summary.min_weight, metrics.min_weight);
}

TEST(Session, AdoptRebalanceFoldsAnExternalResultIn) {
  const Graph g = graph::random_geometric_graph(300, 0.1, 41);
  const Partitioning initial = spectral::recursive_graph_bisection(g, 4);

  SessionConfig config = basic_config(4, "igpr");
  config.batch_policy = BatchPolicy::vertex_count;
  config.batch_vertex_limit = 1000;  // never self-triggers
  Session session(config, g, initial);

  // Compute the rebalance out of band, exactly like the async layer does.
  Session oracle(basic_config(4, "igpr"), g, initial);
  (void)oracle.repartition();

  session.adopt_rebalance(oracle.partitioning());
  EXPECT_EQ(session.partitioning().part, oracle.partitioning().part);
  EXPECT_EQ(session.counters().repartitions, 1);
  EXPECT_EQ(session.pending_updates(), 0);
  // The maintained state absorbed every move: summaries agree without any
  // rescan having happened.
  EXPECT_DOUBLE_EQ(session.summary().cut_total, oracle.summary().cut_total);
  session.partitioning().validate(session.graph());

  // Incompatible adoptions are typed DeltaErrors.
  Partitioning wrong_parts = spectral::recursive_graph_bisection(g, 8);
  EXPECT_THROW(session.adopt_rebalance(wrong_parts), DeltaError);

  // A shorter (prefix) partitioning is fine — vertices past its end keep
  // their placement; a longer one is rejected.
  Partitioning longer = session.partitioning();
  longer.part.push_back(0);
  EXPECT_THROW(session.adopt_rebalance(longer), DeltaError);
}

/// The session's summary equals a full recount of its assignment (unit
/// weights keep every aggregate an exact integer).
void expect_summary_matches_recount(const Session& session) {
  const graph::PartitionMetrics fresh =
      graph::compute_metrics(session.graph(), session.partitioning());
  const graph::PartitionSummary summary = session.summary();
  EXPECT_EQ(summary.cut_total, fresh.cut_total);
  EXPECT_EQ(summary.cut_max, fresh.cut_max);
  EXPECT_EQ(summary.cut_min, fresh.cut_min);
  EXPECT_EQ(summary.max_weight, fresh.max_weight);
  EXPECT_EQ(summary.min_weight, fresh.min_weight);
  EXPECT_EQ(summary.imbalance, fresh.imbalance);
}

SessionConfig deferred_config() {
  SessionConfig config = basic_config(4, "igpr");
  config.batch_policy = BatchPolicy::vertex_count;
  config.batch_vertex_limit = 1000;  // never self-triggers
  config.graph_compaction = GraphCompaction::deferred;
  return config;
}

TEST(Session, AdoptRebalanceKeepsAVertexRemovedAfterTheSnapshotRetired) {
  const Graph g = graph::random_geometric_graph(300, 0.1, 43);
  const Partitioning initial = spectral::recursive_graph_bisection(g, 4);
  Session session(deferred_config(), g, initial);

  // The rebalance is computed on a snapshot taken before the removal, so
  // it still assigns the removed id.
  Session oracle(basic_config(4, "igpr"), g, initial);
  (void)oracle.repartition();
  const graph::VertexId removed = 42;
  ASSERT_NE(oracle.partitioning().part[removed], graph::kUnassigned);

  GraphDelta removal;
  removal.removed_vertices = {removed};
  const SessionReport report = session.apply(removal);
  ASSERT_FALSE(report.compacted);  // deferred: the id stays, dead
  ASSERT_FALSE(session.graph().is_live(removed));

  session.adopt_rebalance(oracle.partitioning());
  EXPECT_EQ(session.partitioning().part[removed], graph::kUnassigned);
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
    if (v == removed) continue;
    EXPECT_EQ(session.partitioning().part[v], oracle.partitioning().part[v]);
  }
  session.partitioning().validate(session.graph());
  expect_summary_matches_recount(session);
}

TEST(Session, SwapInRebalanceTakesAnExactCopyAndRejectsAnyOther) {
  const Graph g = graph::random_geometric_graph(300, 0.1, 47);
  const Partitioning initial = spectral::recursive_graph_bisection(g, 4);
  const SessionConfig config = deferred_config();
  Session session(config, g, initial);
  GraphDelta grow;
  grow.added_vertices.resize(3);
  for (int i = 0; i < 3; ++i) grow.added_vertices[i].edges = {{5 * i, 1.0}};
  (void)session.apply(grow);
  ASSERT_EQ(session.pending_updates(), 1);

  // Rebalance a copy out of session, the way AsyncSession's rear does.
  Graph copy = session.graph();
  Partitioning rebalanced = session.partitioning();
  graph::PartitionState state = session.partition_state();
  const std::uint64_t tag = session.remap_epoch();
  core::Workspace ws;
  (void)BackendRegistry::global()
      .create("igpr", config.resolve())
      ->repartition(copy, rebalanced, copy.num_vertices(), state, ws);
  const Partitioning expected = rebalanced;
  const Partitioning before = session.partitioning();

  // A stale remap tag or a copy of another graph is refused untouched.
  EXPECT_THROW(session.swap_in_rebalance(copy, rebalanced, state, tag + 1),
               DeltaError);
  Graph smaller = g;
  Partitioning smaller_p = initial;
  graph::PartitionState smaller_state(smaller, smaller_p);
  EXPECT_THROW(
      session.swap_in_rebalance(smaller, smaller_p, smaller_state, tag),
      DeltaError);
#ifndef NDEBUG
  // Same counts, different edge: only the Debug graph comparison sees it.
  Graph rewired = copy;
  const graph::VertexId u = 0;
  const graph::VertexId old_end = rewired.neighbors(u)[0];
  graph::VertexId new_end = 1;
  while (new_end == u || rewired.has_edge(u, new_end)) ++new_end;
  (void)rewired.remove_edge(u, old_end);
  (void)rewired.insert_edge(u, new_end, 1.0);
  EXPECT_THROW(session.swap_in_rebalance(rewired, rebalanced, state, tag),
               DeltaError);
#endif
  EXPECT_EQ(session.partitioning().part, before.part);
  EXPECT_EQ(rebalanced.part, expected.part);
  EXPECT_EQ(session.counters().repartitions, 0);
  EXPECT_EQ(session.pending_updates(), 1);

  session.swap_in_rebalance(copy, rebalanced, state, tag);
  EXPECT_EQ(session.partitioning().part, expected.part);
  EXPECT_EQ(session.counters().repartitions, 1);
  EXPECT_EQ(session.pending_updates(), 0);
  // The arguments now hold the session's previous buffers.
  EXPECT_EQ(rebalanced.part, before.part);
  EXPECT_TRUE(copy == session.graph());
  session.partitioning().validate(session.graph());
  expect_summary_matches_recount(session);
}

TEST(Session, InvalidConfigRejectedWithClearError) {
  const Graph g = graph::random_geometric_graph(200, 0.12, 5);

  // num_parts unset.
  try {
    Session session(SessionConfig{}, g);
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("num_parts"), std::string::npos);
  }

  // Bad scratch method.
  SessionConfig bad_method = basic_config(4, "scratch");
  bad_method.scratch_method = "metis";
  EXPECT_THROW((Session{bad_method, g}), CheckError);

  // Bad thread count.
  SessionConfig bad_threads = basic_config(4, "igpr");
  bad_threads.num_threads = 0;
  EXPECT_THROW((Session{bad_threads, g}), CheckError);

  // Bad batch limit.
  SessionConfig bad_limit = basic_config(4, "igpr");
  bad_limit.batch_vertex_limit = 0;
  EXPECT_THROW((Session{bad_limit, g}), CheckError);

  // Adopting a partitioning with the wrong part count.
  Partitioning p = spectral::recursive_graph_bisection(g, 8);
  EXPECT_THROW((Session{basic_config(4, "igpr"), g, p}), CheckError);
}

TEST(Session, VertexCountBatchPolicyTriggersExactlyAtThreshold) {
  const Graph g = graph::random_geometric_graph(400, 0.09, 11);
  const Partitioning initial = spectral::recursive_graph_bisection(g, 4);

  SessionConfig config = basic_config(4, "igpr");
  config.batch_policy = BatchPolicy::vertex_count;
  config.batch_vertex_limit = 3;
  Session session(config, g, initial);

  const auto one_vertex_delta = [](const Graph& current) {
    GraphDelta delta;
    VertexAddition add;
    add.edges.emplace_back(current.num_vertices() / 2, 1.0);
    delta.added_vertices.push_back(add);
    return delta;
  };

  const SessionReport r1 = session.apply(one_vertex_delta(session.graph()));
  EXPECT_FALSE(r1.repartitioned);
  EXPECT_EQ(r1.pending_updates, 1);
  const SessionReport r2 = session.apply(one_vertex_delta(session.graph()));
  EXPECT_FALSE(r2.repartitioned);
  EXPECT_EQ(r2.pending_updates, 2);
  const SessionReport r3 = session.apply(one_vertex_delta(session.graph()));
  EXPECT_TRUE(r3.repartitioned);  // 3 pending vertices == limit
  EXPECT_EQ(r3.pending_updates, 0);

  // Removals count toward the threshold too.
  GraphDelta removal;
  removal.removed_vertices = {0, 1, 2};
  const SessionReport r4 = session.apply(removal);
  EXPECT_TRUE(r4.repartitioned);
  EXPECT_EQ(session.counters().vertices_removed, 3);
}

TEST(Session, ImbalanceBatchPolicyTriggersWhenThresholdCrossed) {
  const Graph g = graph::random_geometric_graph(400, 0.09, 13);
  const Partitioning initial = spectral::recursive_graph_bisection(g, 2);

  SessionConfig config = basic_config(2, "igpr");
  config.batch_policy = BatchPolicy::imbalance;
  config.batch_imbalance_limit = 1.15;
  Session session(config, g, initial);

  // Anchor in partition 0; enough new vertices to push max/avg past 1.15:
  // with 200 per side, +70 on one side gives 270 / 235 ≈ 1.149, +80 gives
  // 280 / 240 ≈ 1.167.
  graph::VertexId anchor = 0;
  while (initial.part[static_cast<std::size_t>(anchor)] != 0) ++anchor;

  const auto burst_delta = [&](int count) {
    GraphDelta delta;
    const graph::VertexId n = session.graph().num_vertices();
    for (int i = 0; i < count; ++i) {
      VertexAddition add;
      add.edges.emplace_back(anchor, 1.0);
      if (i > 0) add.edges.emplace_back(n + i - 1, 1.0);
      delta.added_vertices.push_back(add);
    }
    return delta;
  };

  const SessionReport small = session.apply(burst_delta(20));
  EXPECT_FALSE(small.repartitioned) << "imbalance " << small.metrics.imbalance;
  EXPECT_EQ(small.pending_updates, 1);

  const SessionReport big = session.apply(burst_delta(70));
  EXPECT_TRUE(big.repartitioned);
  EXPECT_TRUE(big.balance.balanced);
  EXPECT_LE(big.metrics.imbalance, 1.15);
}

TEST(Session, ForcedRepartitionFlushesPendingUpdates) {
  const Graph g = graph::random_geometric_graph(300, 0.1, 17);
  const Partitioning initial = spectral::recursive_graph_bisection(g, 4);

  SessionConfig config = basic_config(4, "igpr");
  config.batch_policy = BatchPolicy::vertex_count;
  config.batch_vertex_limit = 1000;  // never trips on its own
  Session session(config, g, initial);

  GraphDelta delta;
  for (int i = 0; i < 5; ++i) {
    VertexAddition add;
    add.edges.emplace_back(i * 7, 1.0);
    delta.added_vertices.push_back(add);
  }
  const SessionReport deferred = session.apply(delta);
  EXPECT_FALSE(deferred.repartitioned);
  EXPECT_EQ(session.pending_updates(), 1);

  const SessionReport forced = session.repartition();
  EXPECT_TRUE(forced.repartitioned);
  EXPECT_EQ(session.pending_updates(), 0);
  EXPECT_TRUE(forced.balance.balanced);
  EXPECT_TRUE(graph::is_balanced(session.graph(), session.partitioning()));
}

TEST(Session, ScratchConstructorPartitionsFromScratch) {
  const Graph g = graph::random_geometric_graph(500, 0.08, 19);
  for (const std::string method : {"rsb", "rgb", "rsb+kl"}) {
    SessionConfig config = basic_config(4, "igpr");
    config.scratch_method = method;
    const Session session(config, g);
    session.partitioning().validate(g);
    EXPECT_TRUE(graph::is_balanced(g, session.partitioning())) << method;
  }
}

TEST(Session, CountersIncludeImplicitEdgeRemovals) {
  // A 5-cycle with a chord: removing vertex 0 implicitly drops its three
  // incident edges; an explicit removal drops one more; a duplicate entry
  // in E2 must not double-count.
  graph::GraphBuilder builder(5);
  builder.add_edge(0, 1, 1.0);
  builder.add_edge(1, 2, 1.0);
  builder.add_edge(2, 3, 1.0);
  builder.add_edge(3, 4, 1.0);
  builder.add_edge(4, 0, 1.0);
  builder.add_edge(0, 2, 1.0);  // chord
  const Graph g = builder.build();
  Partitioning initial;
  initial.num_parts = 2;
  initial.part = {0, 0, 0, 1, 1};
  Session session(basic_config(2, "igpr"), g, initial);

  GraphDelta delta;
  delta.removed_vertices = {0};
  delta.removed_edges = {{2, 3}, {3, 2}};  // duplicate listing
  VertexAddition add;  // keep both sides non-empty for the backend
  add.edges.emplace_back(1, 1.0);
  delta.added_vertices.push_back(add);
  (void)session.apply(delta);

  const SessionCounters& c = session.counters();
  EXPECT_EQ(c.vertices_removed, 1);
  // {0,1}, {4,0}, {0,2} via the removed vertex + {2,3} explicitly.
  EXPECT_EQ(c.edges_removed, 4);
  // The added vertex brought one edge.
  EXPECT_EQ(c.edges_added, 1);
  EXPECT_EQ(session.graph().num_edges(), 3);  // 6 - 4 + 1
}

TEST(Session, CountersIncludeNewVertexAndMergedEdgeAdditions) {
  graph::GraphBuilder builder(4);
  builder.add_edge(0, 1, 1.0);
  builder.add_edge(2, 3, 1.0);
  builder.add_edge(1, 2, 1.0);
  const Graph g = builder.build();
  Partitioning initial;
  initial.num_parts = 2;
  initial.part = {0, 0, 1, 1};
  Session session(basic_config(2, "igpr"), g, initial);

  GraphDelta delta;
  VertexAddition add;
  add.weight = 2.0;
  add.edges.emplace_back(0, 1.0);
  add.edges.emplace_back(3, 1.0);
  delta.added_vertices.push_back(add);
  delta.added_edges = {{0, 3}, {0, 1}};  // one new edge + one weight merge
  delta.added_edge_weights = {1.0, 4.0};
  (void)session.apply(delta);

  const SessionCounters& c = session.counters();
  // Two attachment edges + {0,3}; the {0,1} merge adds no edge, exactly
  // like the graph's own edge count.
  EXPECT_EQ(c.edges_added, 3);
  EXPECT_EQ(c.edges_removed, 0);
  EXPECT_EQ(session.graph().num_edges(), 6);
  EXPECT_EQ(session.graph().edge_weight(0, 1), 5.0);  // merged
}

TEST(Session, CountersIncludeExtensionEdges) {
  const Graph g = graph::random_geometric_graph(120, 0.15, 29);
  const Partitioning initial = spectral::recursive_graph_bisection(g, 4);
  Session session(basic_config(4, "igpr"), g, initial);

  // Extend with 3 vertices: 3 attachment edges + 2 chain edges.
  graph::GraphBuilder builder(g.num_vertices());
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
    builder.set_vertex_weight(v, g.vertex_weight(v));
    for (std::size_t i = 0; i < g.neighbors(v).size(); ++i) {
      const graph::VertexId u = g.neighbors(v)[i];
      if (u > v) builder.add_edge(v, u, g.incident_edge_weights(v)[i]);
    }
  }
  for (int i = 0; i < 3; ++i) {
    const graph::VertexId id = builder.add_vertex();
    builder.add_edge(id, static_cast<graph::VertexId>(i * 17), 1.0);
    if (i > 0) builder.add_edge(id, id - 1, 1.0);
  }
  (void)session.apply_extended(builder.build(), g.num_vertices());

  const SessionCounters& c = session.counters();
  EXPECT_EQ(c.extensions_applied, 1);
  EXPECT_EQ(c.vertices_added, 3);
  EXPECT_EQ(c.edges_added, 5);  // regression: used to stay 0
  EXPECT_EQ(c.edges_removed, 0);
}

TEST(Session, EmptyDeltaIsAPureRepartitionTick) {
  // An empty delta skips the graph rebuild entirely but still runs the
  // backend under every_delta — the steady-state "nudge" the allocation
  // smoke test measures.  It must count as a delta, leave the graph
  // untouched, and land on exactly the state a forced repartition reaches.
  const Graph g = graph::random_geometric_graph(300, 0.1, 31);
  const Partitioning initial = spectral::recursive_graph_bisection(g, 4);

  Session session(basic_config(4, "igpr"), g, initial);
  Session reference(basic_config(4, "igpr"), g, initial);

  const SessionReport tick = session.apply(GraphDelta{});
  const SessionReport forced = reference.repartition();

  EXPECT_TRUE(tick.repartitioned);
  EXPECT_EQ(session.graph(), g);
  EXPECT_EQ(session.partitioning().part, reference.partitioning().part);
  EXPECT_DOUBLE_EQ(tick.metrics.cut_total, forced.metrics.cut_total);
  EXPECT_EQ(session.counters().deltas_applied, 1);
  EXPECT_EQ(session.counters().vertices_added, 0);
  EXPECT_EQ(session.counters().edges_added, 0);
  EXPECT_EQ(session.counters().repartitions, 1);

  // Deferred policies batch the tick like any other delta.
  SessionConfig deferred = basic_config(4, "igpr");
  deferred.batch_policy = BatchPolicy::vertex_count;
  deferred.batch_vertex_limit = 100;
  Session batched(deferred, g, initial);
  const SessionReport pending = batched.apply(GraphDelta{});
  EXPECT_FALSE(pending.repartitioned);
  EXPECT_EQ(pending.pending_updates, 1);
}

TEST(Session, CountersAccumulateAcrossTheStream) {
  const Graph g = graph::random_geometric_graph(300, 0.1, 23);
  const Partitioning initial = spectral::recursive_graph_bisection(g, 4);
  Session session(basic_config(4, "igpr"), g, initial);

  int added = 0;
  for (int step = 0; step < 3; ++step) {
    const GraphDelta delta = mixed_delta(session.graph().num_vertices(), step);
    added += static_cast<int>(delta.added_vertices.size());
    (void)session.apply(delta);
  }
  const SessionCounters& counters = session.counters();
  EXPECT_EQ(counters.deltas_applied, 3);
  EXPECT_EQ(counters.vertices_added, added);
  EXPECT_GT(counters.vertices_removed, 0);
  EXPECT_EQ(counters.repartitions, 3);  // every_delta policy
  EXPECT_GE(counters.balance_stages, 0);
  EXPECT_GE(counters.repartition_seconds, 0.0);
}

}  // namespace
}  // namespace pigp
