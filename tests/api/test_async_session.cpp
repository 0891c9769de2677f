// pigp::AsyncSession — concurrent ingest/serve.  The guarantees under
// test: every published PartitionView is a committed, internally
// consistent snapshot (readers can never observe a torn assignment or an
// epoch moving backwards), flush() is a real barrier leaving the view
// fully rebalanced, removals never corrupt a racing rebalance (stale
// commits are discarded), errors surface on submit()/flush(), and
// shutdown drains cleanly.  The reader/writer stress test is the
// ThreadSanitizer centerpiece: CI runs this whole binary under TSan.

#include "api/async_session.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/backend.hpp"
#include "api/errors.hpp"
#include "graph/delta.hpp"
#include "graph/generators.hpp"
#include "spectral/partitioners.hpp"
#include "support/check.hpp"

namespace pigp {
namespace {

using graph::Graph;
using graph::GraphDelta;
using graph::Partitioning;
using graph::VertexAddition;

SessionConfig async_config(graph::PartId parts) {
  SessionConfig config;
  config.num_parts = parts;
  config.backend = "igpr";
  return config;
}

/// Append-only delta: \p count new unit-weight vertices chained together,
/// the first anchored at a \p step-dependent existing vertex.
GraphDelta append_delta(graph::VertexId current_vertices, int count,
                        int step) {
  GraphDelta delta;
  const graph::VertexId anchor =
      static_cast<graph::VertexId>((step * 37 + 11) % current_vertices);
  for (int i = 0; i < count; ++i) {
    VertexAddition add;
    add.edges.emplace_back(anchor, 1.0);
    if (i > 0) add.edges.emplace_back(current_vertices + i - 1, 1.0);
    delta.added_vertices.push_back(add);
  }
  return delta;
}

/// All vertex weights in these tests are 1.0, so a view is internally
/// consistent iff the per-part counts recomputed from its assignment array
/// reproduce the summary captured with it.  A torn snapshot (assignment
/// and summary from different commits) fails this with overwhelming
/// probability; a corrupt assignment fails the range check outright.
bool view_is_consistent(const PartitionView& view) {
  std::vector<double> weight(static_cast<std::size_t>(view.num_parts()),
                             0.0);
  for (const graph::PartId q : view.assignment()) {
    if (q < 0 || q >= view.num_parts()) return false;  // torn / corrupt
    weight[static_cast<std::size_t>(q)] += 1.0;
  }
  double max_weight = 0.0;
  double total = 0.0;
  for (const double w : weight) {
    max_weight = std::max(max_weight, w);
    total += w;
  }
  return max_weight == view.summary().max_weight &&
         total == static_cast<double>(view.num_vertices());
}

TEST(AsyncSession, AbsorbsAStreamAndPublishesCommittedViews) {
  const Graph g = graph::random_geometric_graph(300, 0.1, 7);
  const Partitioning initial = spectral::recursive_graph_bisection(g, 4);

  AsyncSession session(async_config(4), g, initial);
  const std::shared_ptr<const PartitionView> first = session.view();
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->epoch(), 1u);  // published before any delta
  EXPECT_EQ(first->num_vertices(), g.num_vertices());
  EXPECT_TRUE(view_is_consistent(*first));

  graph::VertexId vertices = g.num_vertices();
  for (int step = 0; step < 8; ++step) {
    session.submit(append_delta(vertices, 3, step));
    vertices += 3;
  }
  session.flush();

  const std::shared_ptr<const PartitionView> final_view = session.view();
  EXPECT_EQ(final_view->num_vertices(), vertices);
  EXPECT_TRUE(view_is_consistent(*final_view));
  EXPECT_GT(final_view->epoch(), first->epoch());
  // The first view stayed valid and untouched the whole time.
  EXPECT_EQ(first->epoch(), 1u);
  EXPECT_EQ(first->num_vertices(), g.num_vertices());

  const AsyncStats stats = session.stats();
  EXPECT_EQ(stats.deltas_submitted, 8);
  EXPECT_EQ(stats.deltas_absorbed, 8);
  EXPECT_EQ(stats.deltas_rejected, 0);
  EXPECT_GE(stats.rebalances_committed, 1);  // every_delta policy
  EXPECT_EQ(stats.rebalances_started, stats.rebalances_committed +
                                          stats.commits_discarded +
                                          stats.rebalance_failures);
  session.close();
}

TEST(AsyncSession, WriterWithConcurrentReadersStaysConsistent) {
  // The TSan stress test: one producer streams deltas while reader
  // threads hammer part_of through the epoch-polling pattern from
  // view.hpp.  Readers record violations instead of EXPECTing off-thread;
  // the main thread asserts at the end.
  constexpr int kReaders = 4;
  constexpr int kDeltas = 48;
  const Graph g = graph::random_geometric_graph(400, 0.09, 11);
  const Partitioning initial = spectral::recursive_graph_bisection(g, 4);

  SessionConfig config = async_config(4);
  config.batch_policy = BatchPolicy::vertex_count;
  config.batch_vertex_limit = 8;
  AsyncSession session(config, g, initial);

  std::atomic<bool> stop{false};
  std::atomic<std::int64_t> lookups{0};
  std::atomic<int> epoch_regressions{0};
  std::atomic<int> inconsistent_views{0};
  std::atomic<int> torn_lookups{0};
  // Readers that have finished their first batch of lookups.  The writer
  // starts only once every reader is running: a stream that drains before
  // a reader thread is first scheduled would leave nothing concurrent.
  std::atomic<int> running{0};

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      std::shared_ptr<const PartitionView> view = session.view();
      std::uint64_t seen = view->epoch();
      std::uint64_t consistency_checks = 0;
      graph::VertexId probe = static_cast<graph::VertexId>(r);
      bool announced = false;
      while (!stop.load(std::memory_order_relaxed)) {
        if (session.epoch() != seen) {
          view = session.view();
          if (view->epoch() < seen) epoch_regressions.fetch_add(1);
          seen = view->epoch();
          // Full-view consistency on every refresh: assignment array and
          // summary must come from the same committed snapshot.
          if (!view_is_consistent(*view)) inconsistent_views.fetch_add(1);
          ++consistency_checks;
        }
        // Wait-free lookups between refreshes: plain loads off the
        // immutable snapshot.
        for (int i = 0; i < 64; ++i) {
          probe = (probe + 13) % view->num_vertices();
          const graph::PartId q = view->part_of(probe);
          if (q < 0 || q >= view->num_parts()) torn_lookups.fetch_add(1);
        }
        lookups.fetch_add(64, std::memory_order_relaxed);
        if (!announced) {
          running.fetch_add(1);
          announced = true;
        }
      }
      (void)consistency_checks;
    });
  }

  while (running.load() < kReaders) std::this_thread::yield();
  graph::VertexId vertices = g.num_vertices();
  for (int step = 0; step < kDeltas; ++step) {
    session.submit(append_delta(vertices, 2, step));
    vertices += 2;
  }
  session.flush();
  stop.store(true);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(epoch_regressions.load(), 0);
  EXPECT_EQ(inconsistent_views.load(), 0);
  EXPECT_EQ(torn_lookups.load(), 0);
  EXPECT_GT(lookups.load(), 0);

  const AsyncStats stats = session.stats();
  EXPECT_EQ(stats.deltas_absorbed, kDeltas);
  EXPECT_GE(stats.rebalances_committed, 1);
  EXPECT_EQ(session.view()->num_vertices(), vertices);
  EXPECT_TRUE(view_is_consistent(*session.view()));
  session.close();
}

TEST(AsyncSession, FlushIsABarrierThatForcesARebalance) {
  const Graph g = graph::random_geometric_graph(300, 0.1, 13);
  const Partitioning initial = spectral::recursive_graph_bisection(g, 4);

  SessionConfig config = async_config(4);
  config.batch_policy = BatchPolicy::vertex_count;
  config.batch_vertex_limit = 100000;  // never trips on its own
  AsyncSession session(config, g, initial);

  graph::VertexId vertices = g.num_vertices();
  for (int step = 0; step < 5; ++step) {
    session.submit(append_delta(vertices, 2, step));
    vertices += 2;
  }
  session.flush();

  const AsyncStats stats = session.stats();
  EXPECT_EQ(stats.deltas_absorbed, 5);
  // The policy never triggered — the rebalance is flush's forced round.
  EXPECT_GE(stats.rebalances_committed, 1);
  EXPECT_EQ(session.view()->num_vertices(), vertices);
  EXPECT_TRUE(view_is_consistent(*session.view()));

  // A flush with nothing pending is a cheap no-op round.
  const std::uint64_t epoch_before = session.epoch();
  session.flush();
  EXPECT_EQ(session.epoch(), epoch_before);
  EXPECT_EQ(session.stats().rebalances_committed,
            stats.rebalances_committed);
  session.close();
}

TEST(AsyncSession, RemovalsNeverCorruptTheView) {
  // Removal deltas remap vertex ids; a rebalance snapshotted before one
  // must be discarded, never adopted.  The race is timing-dependent, so
  // this asserts the invariant (every view stays consistent, the stats
  // ledger balances) rather than a specific discard count.
  const Graph g = graph::random_geometric_graph(300, 0.1, 17);
  const Partitioning initial = spectral::recursive_graph_bisection(g, 4);

  AsyncSession session(async_config(4), g, initial);  // every_delta
  graph::VertexId vertices = g.num_vertices();
  for (int step = 0; step < 12; ++step) {
    session.submit(append_delta(vertices, 3, step));
    vertices += 3;
    GraphDelta removal;
    removal.removed_vertices = {
        static_cast<graph::VertexId>((step * 53 + 29) % vertices)};
    session.submit(removal);
    vertices -= 1;
  }
  session.flush();

  const std::shared_ptr<const PartitionView> view = session.view();
  EXPECT_EQ(view->num_vertices(), vertices);
  EXPECT_TRUE(view_is_consistent(*view));
  const AsyncStats stats = session.stats();
  EXPECT_EQ(stats.deltas_absorbed, 24);
  EXPECT_EQ(stats.rebalances_started, stats.rebalances_committed +
                                          stats.commits_discarded +
                                          stats.rebalance_failures);
  EXPECT_EQ(stats.rebalance_failures, 0);
  session.close();
}

/// A gate the test arms before a rebalance: the next rebalance that
/// enters a "held:" backend reports its entry and waits for the release.
struct JobHold {
  std::mutex mutex;
  bool armed = false;
  std::promise<void> entered;
  std::shared_future<void> release;
};

JobHold& job_hold() {
  static JobHold hold;
  return hold;
}

/// Arms the gate; returns the future that is ready once a job is held.
std::future<void> arm_job_hold(std::shared_future<void> release) {
  JobHold& hold = job_hold();
  const std::lock_guard<std::mutex> lock(hold.mutex);
  hold.armed = true;
  hold.entered = std::promise<void>();
  hold.release = std::move(release);
  return hold.entered.get_future();
}

/// Runs \p inner, first waiting at the gate when it is armed.
class HeldBackend final : public Backend {
 public:
  explicit HeldBackend(std::unique_ptr<Backend> inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return "held";
  }

  [[nodiscard]] BackendResult repartition(const Graph& g_new,
                                          Partitioning& partitioning,
                                          graph::VertexId n_old,
                                          graph::PartitionState& state,
                                          core::Workspace& ws) override {
    std::shared_future<void> release;
    {
      JobHold& hold = job_hold();
      const std::lock_guard<std::mutex> lock(hold.mutex);
      if (hold.armed) {
        hold.armed = false;
        hold.entered.set_value();
        release = hold.release;
      }
    }
    if (release.valid()) release.wait();
    return inner_->repartition(g_new, partitioning, n_old, state, ws);
  }

 private:
  std::unique_ptr<Backend> inner_;
};

void register_held_backend() {
  static const bool once = [] {
    BackendRegistry::global().add("held:igpr", [](const ResolvedConfig& c) {
      return std::make_unique<HeldBackend>(
          BackendRegistry::global().create("igpr", c));
    });
    return true;
  }();
  (void)once;
}

TEST(AsyncSession, VertexRemovedWhileARebalanceIsHeldStaysRetired) {
  // Under deferred compaction a removal keeps ids stable, so the rebalance
  // in flight across it is committed, not discarded.  The delta was
  // absorbed after the snapshot, so the commit must take the adopt path
  // (a swap would drop the delta), and the adoption must not hand the
  // removed id, still assigned in the snapshot, a part again.
  register_held_backend();
  const Graph g = graph::random_geometric_graph(300, 0.1, 53);
  const Partitioning initial = spectral::recursive_graph_bisection(g, 4);
  SessionConfig config = async_config(4);  // every_delta
  config.backend = "held:igpr";
  config.graph_compaction = GraphCompaction::deferred;
  AsyncSession session(config, g, initial);
  // The same deltas on a session that never rebalances: its graph is the
  // deferred (tombstoned) id space the view must be valid on.
  SessionConfig mirror_config = async_config(4);
  mirror_config.batch_policy = BatchPolicy::vertex_count;
  mirror_config.batch_vertex_limit = 1000000;
  mirror_config.graph_compaction = GraphCompaction::deferred;
  Session mirror(mirror_config, g, initial);

  std::promise<void> release;
  std::future<void> held = arm_job_hold(release.get_future().share());
  const GraphDelta first = append_delta(g.num_vertices(), 2, 0);
  session.submit(first);
  (void)mirror.apply(first);
  held.wait();  // the rear holds the snapshot taken after `first`

  const graph::VertexId removed = 42;
  GraphDelta removal = append_delta(mirror.graph().num_vertices(), 1, 1);
  removal.removed_vertices = {removed};
  session.submit(removal);
  ASSERT_FALSE(mirror.apply(removal).compacted);
  while (session.stats().deltas_absorbed < 2) std::this_thread::yield();
  release.set_value();
  session.flush();

  const std::shared_ptr<const PartitionView> view = session.view();
  EXPECT_EQ(view->part_of(removed), graph::kUnassigned);
  ASSERT_EQ(view->num_vertices(), mirror.graph().num_vertices());
  Partitioning published;
  published.num_parts = view->num_parts();
  published.part = view->assignment();
  published.validate(mirror.graph());
  const graph::PartitionMetrics fresh =
      graph::compute_metrics(mirror.graph(), published);
  EXPECT_EQ(view->summary().cut_total, fresh.cut_total);
  EXPECT_EQ(view->summary().max_weight, fresh.max_weight);
  EXPECT_EQ(view->summary().min_weight, fresh.min_weight);
  const AsyncStats stats = session.stats();
  EXPECT_EQ(stats.commits_discarded, 0);
  EXPECT_EQ(stats.rebalance_failures, 0);
  EXPECT_GE(stats.rebalances_committed, 2);  // the held one, then flush's
  session.close();
}

TEST(AsyncSession, InvalidDeltaSurfacesOnFlushAndSubmit) {
  const Graph g = graph::random_geometric_graph(200, 0.12, 19);
  const Partitioning initial = spectral::recursive_graph_bisection(g, 4);
  AsyncSession session(async_config(4), g, initial);

  GraphDelta bad;
  bad.removed_vertices = {100000};  // out of range: rejected pre-mutation
  session.submit(std::move(bad));
  EXPECT_THROW(session.flush(), CheckError);
  EXPECT_EQ(session.stats().deltas_rejected, 1);
  // The error is sticky: subsequent submits rethrow it too.
  EXPECT_THROW(session.submit(append_delta(g.num_vertices(), 1, 0)),
               CheckError);
  // The live session was never touched by the rejected delta.
  EXPECT_EQ(session.view()->num_vertices(), g.num_vertices());
  EXPECT_TRUE(view_is_consistent(*session.view()));
  session.close();
}

TEST(AsyncSession, CloseDrainsAndIsIdempotent) {
  const Graph g = graph::random_geometric_graph(200, 0.12, 23);
  const Partitioning initial = spectral::recursive_graph_bisection(g, 4);

  auto session = std::make_unique<AsyncSession>(async_config(4), g, initial);
  graph::VertexId vertices = g.num_vertices();
  for (int step = 0; step < 6; ++step) {
    session->submit(append_delta(vertices, 2, step));
    vertices += 2;
  }
  session->close();  // drains everything submitted before it
  EXPECT_EQ(session->stats().deltas_absorbed, 6);
  EXPECT_EQ(session->view()->num_vertices(), vertices);
  session->close();  // idempotent

  EXPECT_THROW(session->submit(append_delta(vertices, 1, 0)), DeltaError);
  EXPECT_THROW(session->flush(), DeltaError);
  // Views survive the session: a reader holding one is unaffected.
  const std::shared_ptr<const PartitionView> view = session->view();
  session.reset();  // destructor after explicit close is a no-op
  EXPECT_EQ(view->num_vertices(), vertices);
  EXPECT_TRUE(view_is_consistent(*view));
}

TEST(AsyncSession, ScratchConstructorPartitionsThenServes) {
  const Graph g = graph::random_geometric_graph(300, 0.1, 29);
  AsyncSession session(async_config(4), g);
  EXPECT_EQ(session.view()->num_vertices(), g.num_vertices());
  EXPECT_TRUE(view_is_consistent(*session.view()));
  session.submit(append_delta(g.num_vertices(), 2, 0));
  session.flush();
  EXPECT_EQ(session.view()->num_vertices(), g.num_vertices() + 2);
  session.close();
}

TEST(AsyncSession, InvalidConfigRejectedBeforeAnyThreadStarts) {
  const Graph g = graph::random_geometric_graph(100, 0.15, 31);
  SessionConfig bad = async_config(4);
  bad.async_queue_capacity = 0;
  EXPECT_THROW((AsyncSession{bad, g}), ConfigError);
  EXPECT_THROW((AsyncSession{async_config(0), g}), ConfigError);
  SessionConfig unknown = async_config(4);
  unknown.backend = "no-such-backend";
  EXPECT_THROW((AsyncSession{unknown, g}), UnknownBackendError);
}

TEST(AsyncSession, BackpressureBlocksInsteadOfDropping) {
  // A capacity-1 queue forces the producer to block on every push while
  // the ingest thread catches up — nothing may be lost.
  const Graph g = graph::random_geometric_graph(200, 0.12, 37);
  const Partitioning initial = spectral::recursive_graph_bisection(g, 4);
  SessionConfig config = async_config(4);
  config.async_queue_capacity = 1;
  AsyncSession session(config, g, initial);

  graph::VertexId vertices = g.num_vertices();
  for (int step = 0; step < 16; ++step) {
    session.submit(append_delta(vertices, 1, step));
    vertices += 1;
  }
  session.flush();
  EXPECT_EQ(session.stats().deltas_absorbed, 16);
  EXPECT_EQ(session.view()->num_vertices(), vertices);
  EXPECT_LE(session.stats().queue_high_watermark, 1u);
  session.close();
}

/// One AsyncSession run on a batch-style backend — a fresh partitioning
/// folded into the rebalance thread's snapshot state with
/// PartitionState::transition — with the final graph replayed through the
/// apply_delta oracle alongside.
struct BatchBackendRun {
  Graph graph;
  std::shared_ptr<const PartitionView> view;
  AsyncStats stats;
  AsyncHealth health;
};

BatchBackendRun run_batch_backend(const std::string& backend) {
  const Graph g = graph::random_geometric_graph(300, 0.1, 7);
  SessionConfig config = async_config(4);
  config.backend = backend;
  config.scratch_method = "rgb";
  AsyncSession session(config, g, spectral::recursive_graph_bisection(g, 4));
  BatchBackendRun run;
  run.graph = g;
  for (int step = 0; step < 6; ++step) {
    GraphDelta delta = append_delta(run.graph.num_vertices(), 3, step);
    run.graph = graph::apply_delta(run.graph, delta).graph;
    session.submit(std::move(delta));
  }
  session.flush();
  run.view = session.view();
  run.stats = session.stats();
  run.health = session.health();
  session.close();
  return run;
}

/// The flushed view is a valid partitioning of the final graph, and the
/// summary published with it (the front session's maintained metrics)
/// describes exactly that assignment; every tick committed cleanly.
void expect_clean_committed_view(const BatchBackendRun& run) {
  Partitioning published;
  published.num_parts = run.view->num_parts();
  published.part = run.view->assignment();
  published.validate(run.graph);
  const graph::PartitionMetrics fresh =
      graph::compute_metrics(run.graph, published);
  EXPECT_EQ(run.view->summary().cut_total, fresh.cut_total);
  EXPECT_EQ(run.view->summary().max_weight, fresh.max_weight);
  EXPECT_EQ(run.view->summary().min_weight, fresh.min_weight);
  EXPECT_GE(run.stats.rebalances_committed, 1);
  EXPECT_EQ(run.stats.rebalance_failures, 0);
  EXPECT_EQ(run.health.rebalance_failures, 0);
  EXPECT_EQ(run.health.consecutive_failures, 0);
  EXPECT_FALSE(run.health.error_latched);
}

TEST(AsyncSession, MultilevelBackendCommitsThroughTheRebalanceThread) {
  const BatchBackendRun run = run_batch_backend("multilevel");
  expect_clean_committed_view(run);
}

TEST(AsyncSession, ScratchBackendCommitsThroughTheRebalanceThread) {
  const BatchBackendRun run = run_batch_backend("scratch");
  expect_clean_committed_view(run);
  // flush() leaves the view rebalanced over every delta, and the scratch
  // backend ignores history: the view is the from-scratch partitioning of
  // the final graph.
  EXPECT_EQ(run.view->assignment(),
            spectral::recursive_graph_bisection(run.graph, 4).part);
}

}  // namespace
}  // namespace pigp
