#include "api/backend.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "api/errors.hpp"
#include "core/assign.hpp"
#include "core/multilevel.hpp"
#include "core/spmd_igp.hpp"
#include "core/workspace.hpp"
#include "graph/partition.hpp"
#include "runtime/net/fault_transport.hpp"
#include "runtime/timer.hpp"
#include "spectral/kernighan_lin.hpp"
#include "spectral/partitioners.hpp"

namespace pigp {
namespace {

/// The in-place overload of a batch-style backend: \p out carries a fresh
/// partitioning of \p g_new.  Validate it (O(V) — these backends are off
/// the streaming hot path) and fold it into the caller's partitioning and
/// state by moving exactly the vertices whose assignment changed.
void fold_fresh_result(const graph::Graph& g_new,
                       graph::Partitioning& partitioning,
                       graph::PartitionState& state, BackendResult& out) {
  out.partitioning.validate(g_new);
  state.transition(g_new, partitioning, out.partitioning);
  out.partitioning = {};
}

/// "igp" / "igpr": the paper's flat four-step pipeline.
class FlatBackend final : public Backend {
 public:
  FlatBackend(const ResolvedConfig& config, bool refine)
      : options_(config.igp) {
    options_.refine = refine;
  }

  [[nodiscard]] std::string_view name() const noexcept override {
    return options_.refine ? "igpr" : "igp";
  }

  [[nodiscard]] BackendResult repartition(
      const graph::Graph& g_new, graph::Partitioning& partitioning,
      graph::VertexId n_old, graph::PartitionState& state,
      core::Workspace& ws) override {
    return core::igp_repartition_in_place(g_new, partitioning, n_old, options_,
                                          state, ws);
  }

 private:
  core::IgpOptions options_;
};

/// "multilevel": coarsen, balance at the coarsest level, project + refine.
class MultilevelBackend final : public Backend {
 public:
  explicit MultilevelBackend(const ResolvedConfig& config)
      : options_(config.multilevel) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return "multilevel";
  }

  [[nodiscard]] BackendResult repartition(
      const graph::Graph& g_new, graph::Partitioning& partitioning,
      graph::VertexId n_old, graph::PartitionState& state,
      core::Workspace& /*ws*/) override {
    BackendResult out =
        core::multilevel_repartition(g_new, partitioning, n_old, options_);
    fold_fresh_result(g_new, partitioning, state, out);
    return out;
  }

 private:
  core::MultilevelOptions options_;
};

/// "spmd": the CM-5-style message-passing engine on a backend-owned
/// executor (one rank block of partitions per rank).  config.spmd_transport
/// picks the carrier: "in_process" runs the ranks over in-process
/// mailboxes (the reference carrier), "tcp" runs the same ranks over real
/// loopback sockets with the configured filter chain and timeouts —
/// decisions are bit-identical either way.
///
/// This is the one backend that talks to a network, so it also owns the
/// failure-domain machinery: config.spmd_fault_spec wraps every rank's
/// transport in a chaos injector, and a *retryable* TransportError (see
/// net::FaultClass) is retried up to rebalance_retry_limit times with
/// exponential backoff under rebalance_retry_deadline_ms.  The in-place
/// tick runs inside its own PartitionState::RollbackWindow: each retry
/// undoes it (O(moves + P), not O(V+E)) and full-resets the rank
/// workspaces — so a retried tick starts from input bit-identical to a
/// fault-free one.  Fatal errors and exhausted budgets
/// propagate to the caller (the Session latches them, sticky) with the
/// window closed but *not* undone — the Session's outer window performs
/// the final rollback.
class SpmdBackend final : public Backend {
 public:
  explicit SpmdBackend(const ResolvedConfig& config)
      : options_(config.igp),
        retry_limit_(config.session.rebalance_retry_limit),
        retry_backoff_ms_(config.session.rebalance_retry_backoff_ms),
        retry_deadline_ms_(config.session.rebalance_retry_deadline_ms) {
    if (config.session.spmd_transport == "tcp") {
      net::TcpOptions tcp;
      tcp.send_timeout_ms = config.session.spmd_timeout_ms;
      tcp.recv_timeout_ms = config.session.spmd_timeout_ms;
      tcp.filters = config.session.spmd_wire_filters;
      executor_ = std::make_unique<core::TcpLoopbackExecutor>(
          config.session.spmd_ranks, std::move(tcp));
    } else {
      executor_ =
          std::make_unique<core::MachineExecutor>(config.session.spmd_ranks);
    }
    const std::shared_ptr<net::FaultScript> script =
        net::parse_fault_script(config.session.spmd_fault_spec);
    if (script != nullptr) {
      chaos_ = std::make_unique<core::FaultInjectingExecutor>(*executor_,
                                                              script);
    }
  }

  [[nodiscard]] std::string_view name() const noexcept override {
    return "spmd";
  }

  [[nodiscard]] BackendResult repartition(
      const graph::Graph& g_new, graph::Partitioning& partitioning,
      graph::VertexId n_old, graph::PartitionState& state,
      core::Workspace& ws) override {
    const runtime::WallTimer timer;
    if (ws.remap_generation != seen_remap_generation_) {
      // A delta with removals compacted the id space since our last run:
      // the per-rank persistent layerings address stale ids.
      for (core::Workspace& rank : rank_ws_) rank.invalidate_vertex_ids();
      seen_remap_generation_ = ws.remap_generation;
    }
    RetryBudget budget = make_budget();
    // A failed attempt leaves partitioning/state mid-run, so each retry
    // undoes this window — rebuilding the exact entry conditions in
    // O(moves undone + P) instead of an O(V+E) assignment copy + state
    // rebuild.  The window nests inside the Session's outer one; giving up
    // closes it without undoing, and the outer window owns the final
    // rollback to the pre-tick state.
    graph::PartitionState::RollbackWindow window(state);
    for (;;) {
      try {
        BackendResult out = core::spmd_repartition_in_place(
            executor(), g_new, partitioning, n_old, options_, state, ws,
            rank_ws_);
        out.timings.total = timer.seconds();
        return out;
      } catch (const net::TransportError& e) {
        // Aborted rank threads leave the persistent per-rank layerings
        // mid-stage; full-reset them whether or not we retry.
        for (core::Workspace& rank : rank_ws_) rank.invalidate_vertex_ids();
        if (!backoff_or_give_up(e, budget)) throw;
        // The pre-tick assignment over [0, n_old) returns exactly (the
        // appended vertices end kUnassigned again — they were placed
        // inside the window), so the retried engine run starts from
        // bit-identical input and performs its own step 1 afresh.
        window.undo(g_new, partitioning);
        partitioning.part.resize(static_cast<std::size_t>(n_old));
      }
    }
  }

  void trim_memory() override {
    for (core::Workspace& rank : rank_ws_) rank.release_memory();
  }

 private:
  struct RetryBudget {
    int attempts_left = 0;
    int backoff_ms = 0;
    std::chrono::steady_clock::time_point deadline;
  };

  [[nodiscard]] RetryBudget make_budget() const {
    RetryBudget budget;
    budget.attempts_left = retry_limit_;
    budget.backoff_ms = retry_backoff_ms_;
    budget.deadline = std::chrono::steady_clock::now() +
                      std::chrono::milliseconds(retry_deadline_ms_);
    return budget;
  }

  /// True = sleep the (deadline-clamped, doubling) backoff and retry;
  /// false = the error is fatal or the budget is spent, let it surface.
  [[nodiscard]] static bool backoff_or_give_up(const net::TransportError& e,
                                               RetryBudget& budget) {
    if (!e.retryable() || budget.attempts_left <= 0) return false;
    const auto now = std::chrono::steady_clock::now();
    if (now >= budget.deadline) return false;
    --budget.attempts_left;
    const auto remaining =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            budget.deadline - now);
    std::this_thread::sleep_for(
        std::min(std::chrono::milliseconds(budget.backoff_ms), remaining));
    budget.backoff_ms = std::min(budget.backoff_ms * 2, 60'000);
    return true;
  }

  [[nodiscard]] core::SpmdExecutor& executor() noexcept {
    return chaos_ != nullptr ? static_cast<core::SpmdExecutor&>(*chaos_)
                             : *executor_;
  }

  core::IgpOptions options_;
  int retry_limit_;
  int retry_backoff_ms_;
  int retry_deadline_ms_;
  std::unique_ptr<core::SpmdExecutor> executor_;
  /// Present only when config.spmd_fault_spec is set; decorates executor_.
  std::unique_ptr<core::FaultInjectingExecutor> chaos_;
  /// Persistent per-rank workspaces (resumable layering + pack buffers).
  std::vector<core::Workspace> rank_ws_;
  std::uint64_t seen_remap_generation_ = 0;
};

/// "scratch": ignore the old partitioning and partition from scratch with
/// the configured method (RSB / RGB / RSB+KL).
class ScratchBackend final : public Backend {
 public:
  explicit ScratchBackend(const ResolvedConfig& config) : config_(config) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return "scratch";
  }

  [[nodiscard]] bool incremental() const noexcept override { return false; }

  [[nodiscard]] BackendResult repartition(
      const graph::Graph& g_new, graph::Partitioning& partitioning,
      graph::VertexId /*n_old*/, graph::PartitionState& state,
      core::Workspace& /*ws*/) override {
    const runtime::WallTimer timer;
    BackendResult out;
    out.partitioning = partition_from_scratch(g_new, config_);
    out.timings.total = timer.seconds();
    out.balance_result.balanced = graph::is_balanced(
        g_new, out.partitioning, config_.igp.balance.tolerance + 0.5);
    fold_fresh_result(g_new, partitioning, state, out);
    return out;
  }

 private:
  ResolvedConfig config_;
};

}  // namespace

BackendResult Backend::repartition(const graph::Graph& g_new,
                                   const graph::Partitioning& old_partitioning,
                                   graph::VertexId n_old) {
  graph::Partitioning working = old_partitioning;
  graph::PartitionState state;
  core::seed_extension_state(g_new, working, state);
  core::Workspace ws;
  BackendResult out = repartition(g_new, working, n_old, state, ws);
  out.partitioning = std::move(working);
  return out;
}

graph::Partitioning partition_from_scratch(const graph::Graph& g,
                                           const ResolvedConfig& config) {
  const graph::PartId parts = config.session.num_parts;
  const std::string& method = config.session.scratch_method;
  graph::Partitioning p;
  if (method == "rgb") {
    p = spectral::recursive_graph_bisection(g, parts);
  } else {
    p = spectral::recursive_spectral_bisection(g, parts);
  }
  if (method == "rsb+kl") {
    (void)spectral::kernighan_lin_refine(g, p);
  }
  return p;
}

BackendRegistry& BackendRegistry::global() {
  static BackendRegistry* registry = [] {
    auto* r = new BackendRegistry();
    r->add("igp", [](const ResolvedConfig& config) {
      return std::make_unique<FlatBackend>(config, /*refine=*/false);
    });
    r->add("igpr", [](const ResolvedConfig& config) {
      return std::make_unique<FlatBackend>(config, /*refine=*/true);
    });
    r->add("multilevel", [](const ResolvedConfig& config) {
      return std::make_unique<MultilevelBackend>(config);
    });
    r->add("spmd", [](const ResolvedConfig& config) {
      return std::make_unique<SpmdBackend>(config);
    });
    r->add("scratch", [](const ResolvedConfig& config) {
      return std::make_unique<ScratchBackend>(config);
    });
    return r;
  }();
  return *registry;
}

void BackendRegistry::add(std::string name, BackendFactory factory) {
  if (name.empty()) throw ConfigError("backend name must not be empty");
  if (factory == nullptr) {
    throw ConfigError("backend factory must not be null");
  }
  const sync::MutexLock lock(mutex_);
  factories_[std::move(name)] = std::move(factory);
}

bool BackendRegistry::contains(std::string_view name) const {
  const sync::MutexLock lock(mutex_);
  return factories_.find(name) != factories_.end();
}

std::vector<std::string> BackendRegistry::names() const {
  const sync::MutexLock lock(mutex_);
  std::vector<std::string> out;
  out.reserve(factories_.size());
  for (const auto& [name, factory] : factories_) out.push_back(name);
  return out;
}

std::unique_ptr<Backend> BackendRegistry::create(
    std::string_view name, const ResolvedConfig& config) const {
  BackendFactory factory;
  {
    const sync::MutexLock lock(mutex_);
    const auto it = factories_.find(name);
    if (it != factories_.end()) factory = it->second;
  }
  if (!factory) throw UnknownBackendError(name, names());
  return factory(config);
}

}  // namespace pigp
