#pragma once

/// \file async_session.hpp
/// pigp::AsyncSession — concurrent ingest/serve on top of the synchronous
/// Session.
///
/// The paper's pipeline is stop-the-world: while a rebalance runs, nothing
/// can answer "which part owns vertex v?".  AsyncSession splits the stream
/// into three roles so ingestion, repartitioning and lookups overlap:
///
///   * submit() (any thread) enqueues a GraphDelta into a bounded MPMC
///     queue (runtime/delta_queue.hpp).  A full queue blocks the producer —
///     backpressure instead of an unbounded backlog.
///   * The ingest thread drains the queue into a private synchronous
///     Session whose batch policy is defused: each delta is absorbed and
///     its new vertices get their step-1 nearest-partition placement
///     immediately, then a fresh PartitionView is published.  The ingest
///     thread evaluates the configured batch policy itself, and when a
///     rebalance is due it snapshots (graph, partitioning, state) and hands
///     the snapshot to the repartition thread — ingestion continues while
///     the backend runs.
///   * The repartition thread runs the configured backend on the snapshot
///     (the same in-place Workspace-pooled entry point the synchronous
///     session uses, as a pure rebalance tick) and mails the rebalanced
///     snapshot back.  The ingest thread commits it and publishes the new
///     epoch.  A clean commit — no delta absorbed since the snapshot —
///     goes through Session::swap_in_rebalance: the live session swaps in
///     the rebalanced (graph, partitioning, state) in O(1), keeping the
///     vertex analyses the rear cached, so the next snapshot hands the
///     rear a warm cache and its reseed analyses only what changed.  Any
///     other commit goes through Session::adopt_rebalance — O(moved
///     vertices), not a rescan: ids removed since the snapshot stay
///     retired, and every analysis the moves leave valid is kept.
///     Snapshot buffers shuttle back and forth between the two threads,
///     so the steady state reuses two generations of capacity instead of
///     reallocating per rebalance.
///
/// Readers never touch any of this machinery: view() hands out an
/// immutable epoch-stamped PartitionView (api/view.hpp) whose part_of() is
/// a plain array load.  Every published view is a committed state of the
/// ingest session — a reader can never observe a torn assignment or a
/// half-applied rebalance.
///
/// Staleness protocol: a rebalance computed on a snapshot is only adopted
/// if the vertex id space did not change in between.  Append-only deltas
/// never invalidate a snapshot (new vertices simply keep their step-1
/// placement until the next rebalance); a graph *compaction* renumbers
/// ids (bumping Session::remap_epoch()), so a rebalance that raced with
/// one is discarded (counted in AsyncStats::commits_discarded) and the
/// pending work re-triggers.  Under GraphCompaction::eager every removal
/// delta compacts; under deferred, removal deltas below the slack
/// threshold keep ids stable and their in-flight rebalances adoptable.
///
/// flush() is the barrier: it returns once everything submitted before it
/// is absorbed, any in-flight rebalance is committed, and — if deltas are
/// pending — one final rebalance has run, so the published view is fully
/// rebalanced.  close() (also run by the destructor) drains the queue,
/// waits for the in-flight rebalance, and joins both threads without
/// forcing a final rebalance.
///
/// Errors & failure policy: an invalid delta is rejected by the ingest
/// session before any mutation, skipped, and the first such error is
/// rethrown from the next submit()/flush().  Backend failures leave the
/// live session untouched — the failed snapshot absorbed the damage — and
/// what happens next is config.failure_policy's call:
///
///   * fail_fast (default): the error is latched sticky and the next
///     submit()/flush() rethrows it.  clear_error() is the explicit way
///     back once the operator trusts the transport again.
///   * degrade: the repartition thread restores the snapshot's entry state
///     and re-runs the tick on the local config.fallback_backend, so
///     readers keep receiving fresh rebalanced epochs while the remote
///     group is down.  The failure is recorded in the health() ledger
///     (consecutive failures, fallback count, last error) instead of
///     latched; only a tick that fails *even on the fallback* latches.
///
/// Retry happens below this layer: the "spmd" backend itself re-attempts
/// retryable transport errors under SessionConfig.rebalance_retry_*, so a
/// tick that reaches the failure policy has already spent its budget.

#include <atomic>
#include <cstdint>
#include <exception>
#include <future>
#include <memory>
#include <mutex>  // std::once_flag/call_once only; locks live in runtime/sync.hpp
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "api/config.hpp"
#include "api/session.hpp"
#include "api/view.hpp"
#include "core/workspace.hpp"
#include "graph/delta.hpp"
#include "graph/graph.hpp"
#include "graph/partition.hpp"
#include "graph/partition_state.hpp"
#include "runtime/delta_queue.hpp"
#include "runtime/sync.hpp"

namespace pigp {

/// Cumulative statistics of one AsyncSession, readable from any thread.
struct AsyncStats {
  std::int64_t deltas_submitted = 0;   ///< submit() calls accepted
  std::int64_t deltas_absorbed = 0;    ///< deltas applied by the ingest thread
  std::int64_t deltas_rejected = 0;    ///< invalid deltas skipped
  std::int64_t epochs_published = 0;   ///< PartitionViews published
  std::int64_t rebalances_started = 0; ///< snapshots handed to the backend
  std::int64_t rebalances_committed = 0;
  /// Rebalances discarded because a removal delta remapped vertex ids
  /// between snapshot and commit.
  std::int64_t commits_discarded = 0;
  std::int64_t rebalance_failures = 0;  ///< backend threw on a snapshot
  /// Committed rebalances that went through the degrade fallback backend
  /// (a subset of rebalances_committed).
  std::int64_t rebalance_fallbacks = 0;
  /// Fullest the ingest queue ever got (capacity hit => producers blocked).
  std::size_t queue_high_watermark = 0;
};

/// Failure-domain ledger of one AsyncSession, readable from any thread
/// (see AsyncSession::health).  The started == committed + discarded +
/// failures identity over AsyncStats still holds under faults; this adds
/// the recovery-side view of the same events.
struct AsyncHealth {
  /// Primary-backend failures since the last primary-backend success.
  /// A fallback commit does not reset it — the primary is still failing —
  /// so a monitor can alert on "degraded for N consecutive ticks".
  std::int64_t consecutive_failures = 0;
  /// Ticks published via config.fallback_backend (== stats().rebalance_fallbacks).
  std::int64_t fallbacks_committed = 0;
  /// Ticks lost entirely: no fallback configured, or it failed too
  /// (== stats().rebalance_failures).
  std::int64_t rebalance_failures = 0;
  /// what() of the most recent rebalance failure; empty = none yet.
  /// Not cleared by later successes — it answers "what was the last
  /// thing that went wrong", not "is something wrong now".
  std::string last_error;
  /// True while the most recently completed tick needed the fallback.
  bool degraded = false;
  /// True when an error is latched sticky (submit()/flush() will rethrow;
  /// clear_error() recovers).
  bool error_latched = false;
};

/// Concurrent ingest/serve wrapper around a synchronous Session.
///
/// Thread roles: submit()/flush() may be called from any number of
/// producer threads; view()/epoch()/channel()/stats() from any thread;
/// close() from any thread (idempotent).  The wrapped Session itself is
/// confined to the internal ingest thread.
class AsyncSession {
 public:
  /// Adopt \p g with an existing partitioning (see Session).  The
  /// constructor validates the config, builds the ingest session, creates
  /// a second backend instance for the repartition thread, publishes the
  /// initial view (epoch 1), and starts both threads.
  AsyncSession(const SessionConfig& config, graph::Graph g,
               graph::Partitioning p);

  /// Partition \p g from scratch with config.scratch_method (see Session).
  AsyncSession(const SessionConfig& config, graph::Graph g);

  /// close()s, swallowing any stored error (call flush()/close() yourself
  /// to observe it).
  ~AsyncSession();

  AsyncSession(const AsyncSession&) = delete;
  AsyncSession& operator=(const AsyncSession&) = delete;

  /// Enqueue one delta for ingestion.  Blocks while the queue is full
  /// (backpressure).  Throws DeltaError if the session is closed; rethrows
  /// the first stored ingest/backend error if one occurred.
  void submit(graph::GraphDelta delta);

  /// Barrier: returns once every previously submitted delta is absorbed,
  /// any in-flight rebalance is committed, and pending deltas (if any)
  /// have been rebalanced — the published view is then fully rebalanced.
  /// Rethrows the first stored error.  Throws DeltaError if closed.
  void flush();

  /// Drain the queue, commit or discard the in-flight rebalance, and join
  /// both threads.  Idempotent; does not force a final rebalance (use
  /// flush() first for that).
  void close();

  /// Latest published snapshot — wait-free part_of() lookups, never null.
  [[nodiscard]] std::shared_ptr<const PartitionView> view() const {
    return channel_.acquire();
  }

  /// Epoch of the latest published snapshot (one relaxed atomic load).
  [[nodiscard]] std::uint64_t epoch() const noexcept {
    return channel_.epoch();
  }

  /// The publication channel itself, for readers that poll the epoch and
  /// re-acquire only on change (see view.hpp for the pattern).
  [[nodiscard]] const ViewChannel& channel() const noexcept {
    return channel_;
  }

  [[nodiscard]] const SessionConfig& config() const noexcept {
    return config_;
  }

  [[nodiscard]] AsyncStats stats() const;

  /// The failure-domain ledger: consecutive primary failures, fallback
  /// commits, the last error text, and whether an error is latched.
  [[nodiscard]] AsyncHealth health() const PIGP_EXCLUDES(error_mutex_);

  /// Explicit recovery from a latched error: drop it so submit()/flush()
  /// work again.  The live session and the published view are always
  /// consistent (failed ticks never touch them), but the *caller* asserts
  /// the cause — dead peers, a rejected delta stream — has been dealt
  /// with.  Ledger counters are not reset (they are history, not state).
  /// A no-op when nothing is latched.
  void clear_error() PIGP_EXCLUDES(error_mutex_);

 private:
  /// One queue entry: a delta to absorb, or a flush barrier ticket.
  struct IngestItem {
    graph::GraphDelta delta;
    std::optional<std::promise<void>> flush_ticket;
  };

  /// Snapshot handed to the repartition thread.  The buffers shuttle:
  /// ingest copy-assigns into them (reusing capacity), the repartition
  /// thread rebalances `partitioning` and `state` in place, and the whole
  /// struct rides the commit back to the ingest thread — where a clean
  /// commit swaps it with the front session's buffers — for the next
  /// round.
  struct Job {
    graph::Graph graph;
    graph::Partitioning partitioning;
    graph::PartitionState state;
    /// Session::remap_epoch() at snapshot time; a mismatch at commit time
    /// means a compaction renumbered ids and the result must be discarded.
    std::uint64_t remap_tag = 0;
    /// Pending-work counters folded into this snapshot (restored if the
    /// commit is discarded or fails).
    std::int64_t pending_updates = 0;
    std::int64_t pending_vertex_changes = 0;
  };

  struct Commit {
    Job job;
    bool success = false;
    /// The primary backend's failure — set whenever the primary threw,
    /// including when the degrade fallback then succeeded (success true,
    /// used_fallback true): the ledger wants the cause either way.
    std::exception_ptr error;
    /// True when `job` carries the fallback backend's result.
    bool used_fallback = false;
  };

  void start();
  void ingest_loop();
  void repartition_loop();
  void absorb(graph::GraphDelta delta);
  void handle_flush(std::promise<void> ticket);
  void publish_view();
  [[nodiscard]] bool rebalance_due() const;
  void dispatch_job();
  void handle_commit(Commit commit);
  void record_error(std::exception_ptr error) PIGP_EXCLUDES(error_mutex_);
  [[nodiscard]] std::exception_ptr first_error() const
      PIGP_EXCLUDES(error_mutex_);
  void rethrow_if_error() const;
  /// Ledger writers (ingest thread, from handle_commit): a completed tick
  /// succeeded on the primary / published via the fallback / was lost.
  void note_tick_success() PIGP_EXCLUDES(error_mutex_);
  void note_tick_degraded(const std::exception_ptr& error)
      PIGP_EXCLUDES(error_mutex_);
  void note_tick_failure(const std::exception_ptr& error)
      PIGP_EXCLUDES(error_mutex_);

  SessionConfig config_;
  /// The live single-threaded core, confined to the ingest thread after
  /// construction.  optional<> only for in-place construction of a
  /// move-deleted type.
  std::optional<Session> front_;
  /// The repartition thread's own backend instance and pooled workspace
  /// (never shared with front_'s).
  std::unique_ptr<Backend> rear_backend_;
  core::Workspace rear_ws_;
  /// FailurePolicy::degrade only: the local backend re-running a failed
  /// tick (after undoing the primary's moves), with its own pooled
  /// workspace.  Both are repartition-thread-only after construction.
  std::unique_ptr<Backend> fallback_backend_;
  core::Workspace fallback_ws_;

  ViewChannel channel_;
  std::uint64_t next_epoch_ = 0;

  runtime::BoundedQueue<IngestItem> ingest_queue_;
  runtime::BoundedQueue<Job> job_queue_;      ///< capacity 1
  runtime::BoundedQueue<Commit> commit_queue_;  ///< capacity 1

  // Ingest-thread-only bookkeeping.
  std::int64_t pending_updates_ = 0;
  std::int64_t pending_vertex_changes_ = 0;
  bool job_in_flight_ = false;
  Job spare_job_;  ///< recycled snapshot buffers

  mutable sync::Mutex error_mutex_;
  std::exception_ptr first_error_ PIGP_GUARDED_BY(error_mutex_);
  // Health-ledger fields (written by the ingest thread via note_tick_*,
  // read by health() from any thread).
  std::int64_t consecutive_failures_ PIGP_GUARDED_BY(error_mutex_) = 0;
  std::string last_error_ PIGP_GUARDED_BY(error_mutex_);
  bool degraded_ PIGP_GUARDED_BY(error_mutex_) = false;

  std::atomic<std::int64_t> deltas_submitted_{0};
  std::atomic<std::int64_t> deltas_absorbed_{0};
  std::atomic<std::int64_t> deltas_rejected_{0};
  std::atomic<std::int64_t> epochs_published_{0};
  std::atomic<std::int64_t> rebalances_started_{0};
  std::atomic<std::int64_t> rebalances_committed_{0};
  std::atomic<std::int64_t> commits_discarded_{0};
  std::atomic<std::int64_t> rebalance_failures_{0};
  std::atomic<std::int64_t> rebalance_fallbacks_{0};

  /// Joining must not happen under a capability (the project linter's
  /// blocking-under-lock rule); call_once still blocks concurrent closers
  /// until the winning close() finishes, which is the semantics close()
  /// documents.
  std::once_flag close_once_;
  /// Threads declared last so every member they touch is constructed
  /// before they start and outlives them; close() joins both.
  std::thread ingest_thread_;
  std::thread repartition_thread_;
};

}  // namespace pigp
