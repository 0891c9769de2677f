#pragma once

/// \file backend.hpp
/// Pluggable repartitioning backends behind pigp::Session.
///
/// A Backend turns (new graph, old partitioning, n_old) into a new
/// partitioning plus telemetry.  The built-in backends wrap the library's
/// drivers — the flat IGP/IGPR pipeline, the multilevel V-cycle, the SPMD
/// message-passing engine, and the from-scratch spectral/BFS partitioners —
/// and register under the names "igp", "igpr", "multilevel", "spmd", and
/// "scratch" in a process-wide name-keyed registry, so the driver choice is
/// a runtime string instead of a compile-time entry point.  External code
/// can register additional backends through BackendRegistry::add.

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "api/config.hpp"
#include "core/igp.hpp"
#include "graph/graph.hpp"
#include "graph/partition.hpp"
#include "graph/partition_state.hpp"
#include "runtime/sync.hpp"

namespace pigp {

/// Outcome of one backend run: the engines' own result type.  The plain
/// overload of Backend::repartition fills result.partitioning; the
/// in-place overload leaves it empty (the answer IS the partitioning it was
/// handed).  Backends without a given phase leave its stats at their
/// defaults.
using BackendResult = core::IgpResult;

/// Strategy interface implemented by every repartitioning driver.
class Backend {
 public:
  virtual ~Backend() = default;

  /// Registry name this backend was created under.
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  /// False for from-scratch backends that ignore the old partitioning.
  [[nodiscard]] virtual bool incremental() const noexcept { return true; }

  /// Release any backend-owned pooled memory (Session::trim_memory
  /// forwards here after releasing the session workspace).  The SPMD
  /// backend frees its per-rank workspaces; most backends own nothing.
  virtual void trim_memory() {}

  /// Repartition \p g_new given \p old_partitioning over its first
  /// \p n_old vertices (ids preserved); result.partitioning holds the
  /// answer.  The library's one copying front end: the base
  /// implementation copies the old partitioning, seeds a PartitionState
  /// over it with one O(V+E) rescan, and runs the in-place overload on the
  /// copy.  Virtual so decorators can wrap it.
  [[nodiscard]] virtual BackendResult repartition(
      const graph::Graph& g_new, const graph::Partitioning& old_partitioning,
      graph::VertexId n_old);

  /// The in-place repartition every backend implements — the streaming
  /// hot path.  \p partitioning covers [0, n_old) on entry and \p state
  /// describes (g_new, partitioning) with the appended tail unassigned; on
  /// return both describe the result (result.partitioning stays empty).
  /// Boundary-local backends run the whole pipeline in place off the
  /// maintained boundary index and the caller's \p ws buffers, with zero
  /// per-call O(V) allocations once \p ws is warm.  Batch-style backends
  /// compute a fresh partitioning and fold it in with
  /// PartitionState::transition (moving exactly the vertices whose
  /// assignment changed).  On exception partitioning/state may be mid-run;
  /// the session restores them from its rollback snapshot.
  [[nodiscard]] virtual BackendResult repartition(
      const graph::Graph& g_new, graph::Partitioning& partitioning,
      graph::VertexId n_old, graph::PartitionState& state,
      core::Workspace& ws) = 0;
};

using BackendFactory =
    std::function<std::unique_ptr<Backend>(const ResolvedConfig&)>;

/// Name-keyed backend factory registry.  Thread-safe.
class BackendRegistry {
 public:
  /// The process-wide registry, pre-populated with the built-in backends.
  static BackendRegistry& global();

  /// Register (or replace) a factory under \p name.
  void add(std::string name, BackendFactory factory)
      PIGP_EXCLUDES(mutex_);

  [[nodiscard]] bool contains(std::string_view name) const
      PIGP_EXCLUDES(mutex_);

  /// Registered names in sorted order.
  [[nodiscard]] std::vector<std::string> names() const
      PIGP_EXCLUDES(mutex_);

  /// Instantiate the backend registered under \p name.  Throws
  /// pigp::UnknownBackendError carrying the known names when \p name is
  /// unknown.  The factory itself runs outside the lock, so a factory may
  /// re-enter the registry.
  [[nodiscard]] std::unique_ptr<Backend> create(
      std::string_view name, const ResolvedConfig& config) const
      PIGP_EXCLUDES(mutex_);

 private:
  mutable sync::Mutex mutex_;
  std::map<std::string, BackendFactory, std::less<>> factories_
      PIGP_GUARDED_BY(mutex_);
};

/// Partition \p g from scratch with \p config.session.scratch_method
/// ("rsb", "rgb", or "rsb+kl") into config.session.num_parts parts.  Used
/// by the "scratch" backend and for a Session's initial partitioning.
[[nodiscard]] graph::Partitioning partition_from_scratch(
    const graph::Graph& g, const ResolvedConfig& config);

}  // namespace pigp
