// AsyncSession failure domains: what happens when the rebalance tick's
// backend dies.  Under fail_fast the first TransportError latches sticky
// (submit/flush rethrow, clear_error() revives); under degrade the tick is
// re-run on the local fallback backend so readers keep receiving fresh
// epochs while the remote group is down.  Either way the ledger identity
//
//   rebalances_started == committed + discarded + failures
//
// holds, fallback commits are a subset of committed, and the health()
// ledger (consecutive failures, fallback count, last error, latched flag)
// tracks the recovery-side view of the same events.

#include "api/async_session.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "api/backend.hpp"
#include "api/errors.hpp"
#include "core/workspace.hpp"
#include "graph/partition_state.hpp"
#include "graph/generators.hpp"
#include "spectral/partitioners.hpp"

namespace pigp {
namespace {

using graph::Graph;
using graph::GraphDelta;
using graph::Partitioning;
using graph::VertexAddition;

/// Remaining scripted failures of the "flaky" backend; a huge value means
/// "always fail".  Reset by each test before constructing its session.
std::atomic<std::int64_t> g_failures_left{0};

/// Delegates to a real igpr backend, but throws a retryable TransportError
/// while the shared failure budget lasts.  Registered once as "flaky".
class FlakyBackend final : public Backend {
 public:
  explicit FlakyBackend(std::unique_ptr<Backend> inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return "flaky";
  }

  [[nodiscard]] BackendResult repartition(
      const Graph& g_new, const Partitioning& old_partitioning,
      graph::VertexId n_old) override {
    maybe_throw();
    return inner_->repartition(g_new, old_partitioning, n_old);
  }

  [[nodiscard]] BackendResult repartition(
      const Graph& g_new, Partitioning& partitioning, graph::VertexId n_old,
      graph::PartitionState& state, core::Workspace& ws) override {
    maybe_throw();
    return inner_->repartition(g_new, partitioning, n_old, state, ws);
  }

 private:
  static void maybe_throw() {
    if (g_failures_left.fetch_sub(1, std::memory_order_relaxed) > 0) {
      throw TransportError("flaky backend: scripted tick failure");
    }
  }

  std::unique_ptr<Backend> inner_;
};

void register_flaky_backend() {
  static const bool once = [] {
    BackendRegistry::global().add("flaky", [](const ResolvedConfig& config) {
      return std::make_unique<FlakyBackend>(
          BackendRegistry::global().create("igpr", config));
    });
    return true;
  }();
  (void)once;
}

/// What the "midrun" backend saw on entry to its last tick, and whether
/// its primary run moved anything before it threw.  Written on the
/// repartition thread; read after flush() returns.
struct MidRunEntry {
  Graph graph;
  Partitioning partitioning;
  graph::PartitionState state;
  bool moved = false;
};
MidRunEntry g_midrun_entry;

/// Runs a real igpr tick in place — moving vertices through the snapshot's
/// partitioning and state — and then dies, leaving them half-mutated.
/// Registered once as "midrun".
class MidRunFailBackend final : public Backend {
 public:
  explicit MidRunFailBackend(std::unique_ptr<Backend> inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return "midrun";
  }

  [[nodiscard]] BackendResult repartition(
      const Graph& g_new, Partitioning& partitioning, graph::VertexId n_old,
      graph::PartitionState& state, core::Workspace& ws) override {
    g_midrun_entry.graph = g_new;
    g_midrun_entry.partitioning = partitioning;
    g_midrun_entry.state = state;
    (void)inner_->repartition(g_new, partitioning, n_old, state, ws);
    g_midrun_entry.moved =
        partitioning.part != g_midrun_entry.partitioning.part;
    throw TransportError("midrun backend: died after moving vertices");
  }

 private:
  std::unique_ptr<Backend> inner_;
};

void register_midrun_backend() {
  static const bool once = [] {
    BackendRegistry::global().add("midrun", [](const ResolvedConfig& config) {
      return std::make_unique<MidRunFailBackend>(
          BackendRegistry::global().create("igpr", config));
    });
    return true;
  }();
  (void)once;
}

GraphDelta append_delta(graph::VertexId current_vertices, int step) {
  GraphDelta delta;
  VertexAddition add;
  add.edges.emplace_back(
      static_cast<graph::VertexId>((step * 37 + 11) % current_vertices), 1.0);
  delta.added_vertices.push_back(add);
  return delta;
}

struct Fixture {
  Fixture()
      : g(graph::random_geometric_graph(300, 0.1, 7)),
        initial(spectral::recursive_graph_bisection(g, 4)) {
    register_flaky_backend();
    // Skew the partition so the first rebalance tick has real balancing
    // work: an already-balanced spmd tick performs zero transport
    // operations and a scripted wire fault would never fire.
    graph::VertexId moved = 0;
    const graph::VertexId quota = g.num_vertices() / 8;
    for (graph::VertexId v = 0; v < g.num_vertices() && moved < quota; ++v) {
      if (initial.part[v] == 3) {
        initial.part[v] = 2;
        ++moved;
      }
    }
  }

  [[nodiscard]] SessionConfig config(FailurePolicy policy) const {
    SessionConfig c;
    c.num_parts = 4;
    c.backend = "flaky";
    c.failure_policy = policy;
    c.fallback_backend = "igpr";
    return c;
  }

  Graph g;
  Partitioning initial;
};

void expect_ledger_identity(const AsyncStats& stats) {
  EXPECT_EQ(stats.rebalances_started,
            stats.rebalances_committed + stats.commits_discarded +
                stats.rebalance_failures);
  EXPECT_LE(stats.rebalance_fallbacks, stats.rebalances_committed)
      << "fallback commits are a subset of committed ticks";
}

TEST(AsyncFailure, FailFastLatchesStickyAndClearErrorRevives) {
  const Fixture fx;
  g_failures_left = 1;  // exactly the first tick dies
  AsyncSession session(fx.config(FailurePolicy::fail_fast), fx.g,
                       fx.initial);
  graph::VertexId vertices = fx.g.num_vertices();
  session.submit(append_delta(vertices, 0));
  ++vertices;
  EXPECT_THROW(session.flush(), TransportError);

  AsyncHealth health = session.health();
  EXPECT_TRUE(health.error_latched);
  EXPECT_FALSE(health.degraded);  // fail_fast never degrades
  EXPECT_GE(health.consecutive_failures, 1);
  EXPECT_GE(health.rebalance_failures, 1);
  EXPECT_NE(health.last_error.find("flaky backend"), std::string::npos);

  // Sticky: both entry points rethrow until the caller clears.
  EXPECT_THROW(session.submit(append_delta(vertices, 1)), TransportError);
  EXPECT_THROW(session.flush(), TransportError);

  // The failure budget is spent, so the revived session works — and the
  // health ledger keeps the history while resetting the "now" bits.
  session.clear_error();
  session.submit(append_delta(vertices, 2));
  ++vertices;
  session.flush();
  EXPECT_EQ(session.view()->num_vertices(), vertices);

  health = session.health();
  EXPECT_FALSE(health.error_latched);
  EXPECT_EQ(health.consecutive_failures, 0);  // reset by primary success
  EXPECT_FALSE(health.degraded);
  EXPECT_FALSE(health.last_error.empty());  // history, not state

  const AsyncStats stats = session.stats();
  expect_ledger_identity(stats);
  EXPECT_GE(stats.rebalance_failures, 1);
  EXPECT_EQ(stats.rebalance_fallbacks, 0);
  session.close();
}

TEST(AsyncFailure, DegradeKeepsPublishingFreshEpochs) {
  const Fixture fx;
  g_failures_left = 1'000'000;  // the primary never recovers
  AsyncSession session(fx.config(FailurePolicy::degrade), fx.g, fx.initial);
  const std::uint64_t first_epoch = session.epoch();

  graph::VertexId vertices = fx.g.num_vertices();
  for (int step = 0; step < 5; ++step) {
    session.submit(append_delta(vertices, step));
    ++vertices;
  }
  session.flush();  // never throws: every tick lands via the fallback

  EXPECT_GT(session.epoch(), first_epoch);
  EXPECT_EQ(session.view()->num_vertices(), vertices);

  const AsyncHealth health = session.health();
  EXPECT_FALSE(health.error_latched);
  EXPECT_TRUE(health.degraded);  // the most recent tick needed the fallback
  EXPECT_GE(health.consecutive_failures, 1);  // fallback does not reset it
  EXPECT_NE(health.last_error.find("flaky backend"), std::string::npos);

  const AsyncStats stats = session.stats();
  expect_ledger_identity(stats);
  EXPECT_GE(stats.rebalance_fallbacks, 1);
  EXPECT_EQ(stats.rebalance_fallbacks, stats.rebalances_committed)
      << "the primary never succeeded: every commit came from the fallback";
  EXPECT_EQ(stats.rebalance_failures, 0)
      << "a tick that lands via the fallback is not a lost tick";
  EXPECT_EQ(health.fallbacks_committed, stats.rebalance_fallbacks);
  session.close();
}

TEST(AsyncFailure, DegradeRecoversWhenThePrimaryHeals) {
  const Fixture fx;
  g_failures_left = 1;  // first tick degrades, later ticks are primary
  AsyncSession session(fx.config(FailurePolicy::degrade), fx.g, fx.initial);

  graph::VertexId vertices = fx.g.num_vertices();
  session.submit(append_delta(vertices, 0));
  ++vertices;
  session.flush();  // guarantees the degraded tick completed
  session.submit(append_delta(vertices, 1));
  ++vertices;
  session.flush();  // at least one clean primary tick after it

  const AsyncHealth health = session.health();
  EXPECT_FALSE(health.error_latched);
  EXPECT_FALSE(health.degraded);  // most recent tick was primary
  EXPECT_EQ(health.consecutive_failures, 0);
  EXPECT_GE(health.fallbacks_committed, 1);

  const AsyncStats stats = session.stats();
  expect_ledger_identity(stats);
  EXPECT_GE(stats.rebalance_fallbacks, 1);
  EXPECT_GT(stats.rebalances_committed, stats.rebalance_fallbacks);
  session.close();
}

TEST(AsyncFailure, DegradeLatchesOnlyWhenTheFallbackFailsToo) {
  const Fixture fx;
  g_failures_left = 1'000'000;
  SessionConfig config = fx.config(FailurePolicy::degrade);
  config.fallback_backend = "flaky";  // fallback shares the failure budget
  AsyncSession session(config, fx.g, fx.initial);

  session.submit(append_delta(fx.g.num_vertices(), 0));
  EXPECT_THROW(session.flush(), TransportError);

  const AsyncHealth health = session.health();
  EXPECT_TRUE(health.error_latched);
  EXPECT_FALSE(health.degraded);  // nothing was published for that tick
  EXPECT_GE(health.rebalance_failures, 1);

  const AsyncStats stats = session.stats();
  expect_ledger_identity(stats);
  EXPECT_EQ(stats.rebalance_fallbacks, 0);
  EXPECT_GE(stats.rebalance_failures, 1);
  session.close();
}

TEST(AsyncFailure, SpmdChaosTickDegradesThenPrimaryResumes) {
  // End-to-end: the real spmd backend dies on a scripted one-shot wire
  // fault, the tick lands via the local igpr fallback, and once the
  // budget is spent later ticks come from the primary again — readers
  // never see a gap.
  const Fixture fx;
  SessionConfig config;
  config.num_parts = 4;
  config.backend = "spmd";
  config.spmd_ranks = 2;
  config.spmd_transport = "in_process";
  config.spmd_fault_spec = "allgather@1:disconnect";
  config.rebalance_retry_limit = 0;  // surface the fault to the policy
  config.failure_policy = FailurePolicy::degrade;
  config.fallback_backend = "igpr";
  AsyncSession session(config, fx.g, fx.initial);

  graph::VertexId vertices = fx.g.num_vertices();
  session.submit(append_delta(vertices, 0));
  ++vertices;
  session.flush();
  session.submit(append_delta(vertices, 1));
  ++vertices;
  session.flush();

  EXPECT_EQ(session.view()->num_vertices(), vertices);
  const AsyncHealth health = session.health();
  EXPECT_FALSE(health.error_latched);
  EXPECT_FALSE(health.degraded);
  EXPECT_EQ(health.consecutive_failures, 0);
  EXPECT_GE(health.fallbacks_committed, 1);

  const AsyncStats stats = session.stats();
  expect_ledger_identity(stats);
  EXPECT_GE(stats.rebalance_fallbacks, 1);
  EXPECT_GT(stats.rebalances_committed, stats.rebalance_fallbacks);
  session.close();
}

TEST(AsyncFailure, DegradeAfterAMidRunFailureMatchesTheFallbackOnTheSnapshot) {
  // The primary moves vertices and then dies: the degrade path must undo
  // those moves exactly, so the committed partitioning is what the
  // fallback computes from an untouched copy of the same snapshot.
  const Fixture fx;
  register_midrun_backend();
  SessionConfig config = fx.config(FailurePolicy::degrade);
  config.backend = "midrun";
  AsyncSession session(config, fx.g, fx.initial);

  session.submit(append_delta(fx.g.num_vertices(), 0));
  session.flush();
  ASSERT_TRUE(g_midrun_entry.moved)
      << "the primary must move vertices before it throws";

  const std::unique_ptr<Backend> fallback =
      BackendRegistry::global().create("igpr", config.resolve());
  core::Workspace ws;
  MidRunEntry& entry = g_midrun_entry;
  (void)fallback->repartition(entry.graph, entry.partitioning,
                              entry.graph.num_vertices(), entry.state, ws);
  EXPECT_EQ(session.view()->assignment(), entry.partitioning.part);

  const AsyncStats stats = session.stats();
  expect_ledger_identity(stats);
  EXPECT_EQ(stats.rebalance_fallbacks, 1);
  EXPECT_EQ(stats.rebalances_committed, 1);
  session.close();
}

}  // namespace
}  // namespace pigp
