#include "api/async_session.hpp"

#include <chrono>
#include <limits>
#include <string>
#include <utility>

#include "api/backend.hpp"
#include "api/errors.hpp"

namespace pigp {
namespace {

/// The ingest session must never trigger its own backend — the async layer
/// evaluates the user's batch policy itself and runs rebalances on the
/// repartition thread.  A vertex_count policy with an unreachable limit
/// keeps every apply() on the deferred step-1 path.
SessionConfig defused(SessionConfig config) {
  config.batch_policy = BatchPolicy::vertex_count;
  config.batch_vertex_limit = std::numeric_limits<int>::max();
  return config;
}

/// Validates the whole config (throws ConfigError before any thread or
/// session exists) and yields the ingest-queue bound.
std::size_t validated_queue_capacity(const SessionConfig& config) {
  return static_cast<std::size_t>(
      config.resolve().session.async_queue_capacity);
}

/// Human-readable what() of a stored exception, for the health ledger.
std::string describe(const std::exception_ptr& error) {
  if (error == nullptr) return {};
  try {
    std::rethrow_exception(error);
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "unknown error";
  }
}

}  // namespace

AsyncSession::AsyncSession(const SessionConfig& config, graph::Graph g,
                           graph::Partitioning p)
    : config_(config),
      ingest_queue_(validated_queue_capacity(config)),
      job_queue_(1),
      commit_queue_(1) {
  const ResolvedConfig resolved = config.resolve();
  rear_backend_ = BackendRegistry::global().create(config.backend, resolved);
  if (config.failure_policy == FailurePolicy::degrade) {
    fallback_backend_ = BackendRegistry::global().create(
        config.fallback_backend, resolved);
  }
  front_.emplace(defused(config), std::move(g), std::move(p));
  start();
}

AsyncSession::AsyncSession(const SessionConfig& config, graph::Graph g)
    : config_(config),
      ingest_queue_(validated_queue_capacity(config)),
      job_queue_(1),
      commit_queue_(1) {
  const ResolvedConfig resolved = config.resolve();
  rear_backend_ = BackendRegistry::global().create(config.backend, resolved);
  if (config.failure_policy == FailurePolicy::degrade) {
    fallback_backend_ = BackendRegistry::global().create(
        config.fallback_backend, resolved);
  }
  front_.emplace(defused(config), std::move(g));
  start();
}

AsyncSession::~AsyncSession() {
  try {
    close();
  } catch (...) {
    // The stored error is observable through flush()/close() before
    // destruction; a destructor must not throw.
  }
}

void AsyncSession::start() {
  publish_view();  // epoch 1: readers have a view before any delta lands
  ingest_thread_ = std::thread([this] {
    try {
      ingest_loop();
    } catch (...) {
      record_error(std::current_exception());
    }
    // Unblock the repartition thread no matter how the loop ended: close
    // its input, and close the commit mailbox so a commit push in flight
    // cannot block on a consumer that is gone.
    job_queue_.close();
    commit_queue_.close();
  });
  try {
    repartition_thread_ = std::thread([this] {
      try {
        repartition_loop();
      } catch (...) {
        record_error(std::current_exception());
      }
    });
  } catch (...) {
    // No caller can have submitted yet, so closing the ingest queue ends
    // the ingest loop; join it before the failed constructor unwinds.
    ingest_queue_.close();
    ingest_thread_.join();
    throw;
  }
}

void AsyncSession::submit(graph::GraphDelta delta) {
  rethrow_if_error();
  IngestItem item;
  item.delta = std::move(delta);
  if (!ingest_queue_.push(std::move(item))) {
    throw DeltaError("AsyncSession::submit: session is closed");
  }
  deltas_submitted_.fetch_add(1, std::memory_order_relaxed);
}

void AsyncSession::flush() {
  IngestItem item;
  item.flush_ticket.emplace();
  std::future<void> done = item.flush_ticket->get_future();
  if (!ingest_queue_.push(std::move(item))) {
    throw DeltaError("AsyncSession::flush: session is closed");
  }
  done.get();  // rethrows the stored error, if any, via the ticket
}

void AsyncSession::close() {
  std::call_once(close_once_, [this] {
    ingest_queue_.close();
    if (ingest_thread_.joinable()) ingest_thread_.join();
    if (repartition_thread_.joinable()) repartition_thread_.join();
  });
}

AsyncStats AsyncSession::stats() const {
  AsyncStats out;
  out.deltas_submitted = deltas_submitted_.load(std::memory_order_relaxed);
  out.deltas_absorbed = deltas_absorbed_.load(std::memory_order_relaxed);
  out.deltas_rejected = deltas_rejected_.load(std::memory_order_relaxed);
  out.epochs_published = epochs_published_.load(std::memory_order_relaxed);
  out.rebalances_started =
      rebalances_started_.load(std::memory_order_relaxed);
  out.rebalances_committed =
      rebalances_committed_.load(std::memory_order_relaxed);
  out.commits_discarded =
      commits_discarded_.load(std::memory_order_relaxed);
  out.rebalance_failures =
      rebalance_failures_.load(std::memory_order_relaxed);
  out.rebalance_fallbacks =
      rebalance_fallbacks_.load(std::memory_order_relaxed);
  out.queue_high_watermark = ingest_queue_.high_watermark();
  return out;
}

AsyncHealth AsyncSession::health() const {
  AsyncHealth out;
  out.fallbacks_committed =
      rebalance_fallbacks_.load(std::memory_order_relaxed);
  out.rebalance_failures =
      rebalance_failures_.load(std::memory_order_relaxed);
  const sync::MutexLock lock(error_mutex_);
  out.consecutive_failures = consecutive_failures_;
  out.last_error = last_error_;
  out.degraded = degraded_;
  out.error_latched = first_error_ != nullptr;
  return out;
}

void AsyncSession::clear_error() {
  const sync::MutexLock lock(error_mutex_);
  first_error_ = nullptr;
}

// ----------------------------------------------------------- ingest thread

void AsyncSession::ingest_loop() {
  using namespace std::chrono_literals;
  for (;;) {
    std::optional<IngestItem> item;
    if (job_in_flight_) {
      // Multiplex: prefer a finished rebalance, otherwise wait briefly for
      // the next delta so neither channel starves the other.
      if (std::optional<Commit> commit = commit_queue_.try_pop()) {
        handle_commit(std::move(*commit));
        continue;
      }
      item = ingest_queue_.pop_for(500us);
      if (!item && ingest_queue_.closed()) item = ingest_queue_.try_pop();
      if (!item) {
        if (ingest_queue_.closed()) break;  // closed AND drained
        continue;                           // timeout: poll the mailbox
      }
    } else {
      item = ingest_queue_.pop();
      if (!item) break;  // closed and drained
    }
    if (item->flush_ticket) {
      handle_flush(std::move(*item->flush_ticket));
    } else {
      absorb(std::move(item->delta));
    }
  }
  // Shutdown: settle the in-flight rebalance so close() leaves the live
  // session consistent (adopted or cleanly discarded, never abandoned).
  if (job_in_flight_) {
    if (std::optional<Commit> commit = commit_queue_.pop()) {
      handle_commit(std::move(*commit));
    }
  }
}

void AsyncSession::absorb(graph::GraphDelta delta) {
  const SessionCounters before = front_->counters();
  try {
    (void)front_->apply(delta);
  } catch (...) {
    // apply() validates before mutating, so a rejected delta leaves the
    // session untouched: skip it, surface the error on the next
    // submit()/flush().
    deltas_rejected_.fetch_add(1, std::memory_order_relaxed);
    record_error(std::current_exception());
    return;
  }
  const SessionCounters& after = front_->counters();
  deltas_absorbed_.fetch_add(1, std::memory_order_relaxed);
  pending_updates_ += 1;
  pending_vertex_changes_ +=
      (after.vertices_added - before.vertices_added) +
      (after.vertices_removed - before.vertices_removed);
  publish_view();
  if (!job_in_flight_ && rebalance_due()) dispatch_job();
}

void AsyncSession::handle_flush(std::promise<void> ticket) {
  try {
    // Everything submitted before the ticket is already absorbed (FIFO).
    // Settle the in-flight rebalance, then force rounds until nothing is
    // pending: the published view ends fully rebalanced.  The loop
    // terminates because no new deltas are absorbed while we are here —
    // a round can only be re-run when a pre-flush removal delta staled the
    // in-flight snapshot, and that happens at most once.
    while (first_error() == nullptr) {
      if (job_in_flight_) {
        std::optional<Commit> commit = commit_queue_.pop();
        if (!commit) break;  // repartition thread shut down under us
        handle_commit(std::move(*commit));
        continue;
      }
      if (pending_updates_ > 0) {
        dispatch_job();
        continue;
      }
      break;
    }
    if (std::exception_ptr error = first_error()) {
      ticket.set_exception(error);
    } else {
      ticket.set_value();
    }
  } catch (...) {
    ticket.set_exception(std::current_exception());
  }
}

void AsyncSession::publish_view() {
  ++next_epoch_;
  channel_.publish(std::make_shared<const PartitionView>(
      next_epoch_, front_->partitioning(), front_->summary()));
  epochs_published_.fetch_add(1, std::memory_order_relaxed);
}

bool AsyncSession::rebalance_due() const {
  return pending_updates_ > 0 && batch_due(config_, pending_vertex_changes_,
                                           front_->partition_state());
}

// pigp:steady-state
void AsyncSession::dispatch_job() {
  // Recycle the previous round's buffers: copy-assignment reuses their
  // capacity, so at steady state a snapshot costs copies, not allocations.
  // The state copy carries the front's cached vertex analyses, which the
  // last clean commit handed over, so the rear starts warm.
  Job job = std::move(spare_job_);
  job.graph = front_->graph();
  job.partitioning = front_->partitioning();
  job.state = front_->partition_state();
  job.remap_tag = front_->remap_epoch();
  job.pending_updates = pending_updates_;
  job.pending_vertex_changes = pending_vertex_changes_;
  pending_updates_ = 0;
  pending_vertex_changes_ = 0;
  rebalances_started_.fetch_add(1, std::memory_order_relaxed);
  // Capacity 1 and at most one job in flight: this never blocks.
  (void)job_queue_.push(std::move(job));
  job_in_flight_ = true;
}

// pigp:steady-state
void AsyncSession::handle_commit(Commit commit) {
  job_in_flight_ = false;
  const bool current = commit.job.remap_tag == front_->remap_epoch();
  if (commit.success && current) {
    try {
      if (pending_updates_ == 0) {
        // Nothing was absorbed since the snapshot (dispatch zeroed the
        // counter), so the job's graph is the live graph: the front takes
        // the rebalanced buffers whole in O(1), with the vertex analyses
        // the rear cached, and its old buffers become the spare below.
        front_->swap_in_rebalance(commit.job.graph, commit.job.partitioning,
                                  commit.job.state, commit.job.remap_tag);
      } else {
        // Ids are stable since the snapshot, so the rebalanced assignment
        // is a valid prefix of the live session: adopt it (O(moved
        // vertices)).  Vertices absorbed after the snapshot keep their
        // step-1 placement until the next round, and vertices removed
        // after it stay retired.
        front_->adopt_rebalance(commit.job.partitioning);
      }
    } catch (...) {
      // Both commits check before they change anything, so a refused one
      // leaves the front untouched: the tick is lost like a failed one.
      commit.success = false;
      commit.error = std::current_exception();
    }
  }
  if (!commit.success) {
    // Tick lost: the primary failed and there was no fallback (or it
    // failed too).  The live session was never touched (the snapshot
    // absorbed the damage).  Latch the error, note it in the ledger,
    // restore the pending counters, and do NOT retry immediately — a
    // broken backend would spin; the next absorbed delta re-evaluates the
    // policy.
    rebalance_failures_.fetch_add(1, std::memory_order_relaxed);
    note_tick_failure(commit.error);
    record_error(commit.error);
    pending_updates_ += commit.job.pending_updates;
    pending_vertex_changes_ += commit.job.pending_vertex_changes;
  } else if (!current) {
    // A compaction renumbered the id space after the snapshot was taken:
    // the rebalanced assignment addresses stale ids.  Discard it and
    // re-trigger on the current state.  (Under deferred compaction a
    // removal delta no longer remaps ids, so snapshots survive removals
    // until the slack threshold actually trips.)
    commits_discarded_.fetch_add(1, std::memory_order_relaxed);
    pending_updates_ += commit.job.pending_updates;
    pending_vertex_changes_ += commit.job.pending_vertex_changes;
  } else {
    rebalances_committed_.fetch_add(1, std::memory_order_relaxed);
    if (commit.used_fallback) {
      // Degraded tick: published, readers got a fresh epoch, but the
      // primary did fail — the ledger records it without latching.
      rebalance_fallbacks_.fetch_add(1, std::memory_order_relaxed);
      note_tick_degraded(commit.error);
    } else {
      note_tick_success();
    }
    publish_view();
  }
  const bool failed = !commit.success;
  spare_job_ = std::move(commit.job);
  if (!failed && !job_in_flight_ && rebalance_due()) dispatch_job();
}

// ------------------------------------------------------ repartition thread

void AsyncSession::repartition_loop() {
  std::uint64_t seen_remap_tag = 0;
  const bool degrade = fallback_backend_ != nullptr;
  while (std::optional<Job> job = job_queue_.pop()) {
    Commit commit;
    if (job->remap_tag != seen_remap_tag) {
      // A removal delta compacted the id space since the last snapshot we
      // processed: the pooled layering/epoch buffers address stale ids.
      rear_ws_.invalidate_vertex_ids();
      fallback_ws_.invalidate_vertex_ids();
      seen_remap_tag = job->remap_tag;
    }
    {
      // A primary that dies mid-run leaves the job's partitioning/state
      // half-mutated; the fallback restore undoes this window — O(moves),
      // not an assignment copy per tick plus a rescan on failure.
      graph::PartitionState::RollbackWindow window(job->state);
      try {
        // Pure rebalance tick: the snapshot is fully placed (the ingest
        // session runs step 1 eagerly), so n_old == num_vertices and the
        // backend's in-place entry point rebalances off the snapshot's
        // maintained state and this thread's own pooled workspace.
        (void)rear_backend_->repartition(job->graph, job->partitioning,
                                         job->graph.num_vertices(), job->state,
                                         rear_ws_);
        commit.success = true;
      } catch (...) {
        commit.success = false;
        commit.error = std::current_exception();
        if (degrade) {
          try {
            // Graceful degradation: undo to the tick's entry assignment and
            // state, and re-run locally so readers still get a fresh epoch.
            // The commit keeps the primary's error for the ledger.
            window.undo(job->graph, job->partitioning);
            (void)fallback_backend_->repartition(
                job->graph, job->partitioning, job->graph.num_vertices(),
                job->state, fallback_ws_);
            commit.success = true;
            commit.used_fallback = true;
          } catch (...) {
            // Even the local fallback failed — the tick is lost; report the
            // primary's error (the root cause) and let fail-fast handling
            // latch it.
            commit.success = false;
          }
        }
      }
    }  // the window closes before the job moves into the commit
    commit.job = std::move(*job);
    // false only when the ingest thread already shut the mailbox; the
    // result is moot then.
    if (!commit_queue_.push(std::move(commit))) break;
  }
}

// ------------------------------------------------------------------ errors

void AsyncSession::record_error(std::exception_ptr error) {
  sync::MutexLock lock(error_mutex_);
  if (!first_error_) first_error_ = std::move(error);
}

std::exception_ptr AsyncSession::first_error() const {
  sync::MutexLock lock(error_mutex_);
  return first_error_;
}

void AsyncSession::rethrow_if_error() const {
  if (std::exception_ptr error = first_error()) {
    std::rethrow_exception(error);
  }
}

void AsyncSession::note_tick_success() {
  const sync::MutexLock lock(error_mutex_);
  consecutive_failures_ = 0;
  degraded_ = false;
}

void AsyncSession::note_tick_degraded(const std::exception_ptr& error) {
  // describe() before taking the lock: rethrowing under a capability
  // would be blocking-adjacent work the lock does not need.
  std::string what = describe(error);
  const sync::MutexLock lock(error_mutex_);
  ++consecutive_failures_;
  degraded_ = true;
  last_error_ = std::move(what);
}

void AsyncSession::note_tick_failure(const std::exception_ptr& error) {
  std::string what = describe(error);
  const sync::MutexLock lock(error_mutex_);
  ++consecutive_failures_;
  degraded_ = false;
  last_error_ = std::move(what);
}

}  // namespace pigp
