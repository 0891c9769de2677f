#pragma once

/// \file config.hpp
/// Declarative configuration for a pigp::Session.
///
/// SessionConfig is the single place a user states what they want — part
/// count, backend, balance/refine knobs, batching policy —
/// and resolve() is the single place those wishes are validated and
/// propagated into the nested option structs the core drivers consume
/// (IgpOptions, BalanceOptions, RefineOptions, NetworkOptions,
/// MultilevelOptions, AssignOptions).  Nothing else in the library derives
/// one option struct from another; config.cpp carries compile-time
/// field-count guards so adding a field to any of those structs forces an
/// update here instead of being silently skipped.

#include <cstdint>
#include <string>

#include "core/assign.hpp"
#include "core/igp.hpp"
#include "core/multilevel.hpp"
#include "graph/partition.hpp"
#include "graph/partition_state.hpp"

namespace pigp {

/// When Session::apply absorbs a delta without immediately rebalancing,
/// this policy decides what finally triggers a repartition.
enum class BatchPolicy {
  every_delta,    ///< repartition after every apply() (the paper's protocol)
  imbalance,      ///< repartition once imbalance exceeds batch_imbalance_limit
  vertex_count,   ///< repartition once pending vertex changes reach
                  ///< batch_vertex_limit
};

/// What AsyncSession does when a rebalance tick fails even after the
/// retry budget (see rebalance_retry_*) is spent.
enum class FailurePolicy {
  /// Latch the error: the failed tick is counted, the error is sticky,
  /// and the next submit()/flush() rethrows it (clear_error() recovers).
  fail_fast,
  /// Re-run the failed tick's snapshot on the local fallback_backend so
  /// readers keep receiving fresh epochs; the failure is recorded in the
  /// health ledger instead of latched.
  degrade,
};

/// When Session::apply reclaims the ids of removed vertices (the graph
/// keeps removed ids as empty "dead" tombstones until a compaction
/// renumbers the survivors).
enum class GraphCompaction {
  /// Compact at the end of every delta that removed something.  Vertex ids
  /// after apply() are exactly the ids the historical rebuild path
  /// produced — the drop-in-compatible default.
  eager,
  /// Defer compaction until dead ids or abandoned adjacency slots exceed
  /// compaction_slack (or Session::compact() is called).  Only relocated
  /// and removed rows abandon slots; the free reserve that compact()
  /// leaves in every row does not count.  Ids stay stable across removal
  /// deltas and apply() cost drops to O(Δ) even for the remap
  /// bookkeeping.  Requires an in-place backend ("igp", "igpr",
  /// "spmd") — batch backends rebuild from the full graph each tick and
  /// cannot see tombstones.
  deferred,
};

struct ResolvedConfig;

/// Everything a Session needs, stated once.  Call resolve() to validate and
/// derive the nested core option structs.
struct SessionConfig {
  /// Number of partitions (required, >= 1).
  graph::PartId num_parts = 0;
  /// Backend registry key: "igp", "igpr", "multilevel", "spmd", "scratch",
  /// or any name registered through BackendRegistry.
  std::string backend = "igpr";
  /// Must be 1: a rank rebalances serially, and backend "spmd" with
  /// spmd_ranks > 1 is the way to rebalance in parallel.  Removed with
  /// ROADMAP item 1.
  int num_threads = 1;

  // --- balance (step 3) knobs ---
  double alpha_max = 64.0;       ///< upper bound C on the relaxation factor
  int max_balance_stages = 12;
  double balance_tolerance = 0.5;

  // --- refinement (step 4) knobs ---
  int max_refine_rounds = 8;

  // --- multilevel backend knobs ---
  int multilevel_coarsest_size = 2000;
  int multilevel_max_levels = 6;

  // --- spmd backend knobs ---
  int spmd_ranks = 4;
  /// What carries the SPMD messages: "in_process" (in-process mailboxes,
  /// the reference carrier) or "tcp" (real loopback sockets — the full wire
  /// path with framing, filters, and timeouts; decisions stay
  /// bit-identical).
  std::string spmd_transport = "in_process";
  /// Comma-separated message-filter chain applied to every TCP payload,
  /// e.g. "delta" or "delta,zlib" (see net::parse_filter_chain).  Empty =
  /// raw payloads.  Ignored by the in_process transport.
  std::string spmd_wire_filters;
  /// Socket send/recv timeout for the tcp transport, milliseconds (>= 1).
  /// A rank stuck longer than this surfaces a pigp::TransportError.
  int spmd_timeout_ms = 30000;
  /// Scripted chaos for the spmd backend (tests / fault drills): a
  /// net::parse_fault_script spec, e.g. "rank1:send@3:corrupt" or
  /// "rank0:any@12:kill".  Every rank's transport is wrapped in a
  /// net::FaultInjectingTransport sharing one script, so faults fire
  /// deterministically and one-shot faults are absorbed by the retry
  /// path.  Empty = no injection (no wrapper, zero overhead).  drop
  /// rules require spmd_transport == "tcp": only a transport with
  /// bounded recv turns a swallowed packet into a typed timeout.
  std::string spmd_fault_spec;

  // --- failure recovery (spmd backend retry + AsyncSession policy) ---
  /// How many times one rebalance tick is re-attempted after a
  /// *retryable* TransportError (see net::FaultClass); fatal errors
  /// never retry.  0 disables retry.  Applies to the "spmd" backend,
  /// which rolls the partitioning/state back to the tick's entry
  /// snapshot before each attempt, so a retried tick is bit-identical
  /// to a fault-free one.
  int rebalance_retry_limit = 2;
  /// Backoff before the first retry, milliseconds (>= 1); doubles per
  /// attempt and is clamped to the time left under the deadline.
  int rebalance_retry_backoff_ms = 50;
  /// Wall-clock budget across all attempts of one tick, milliseconds
  /// (>= 1).  When it runs out, the last error surfaces even if the
  /// retry limit was not reached.
  int rebalance_retry_deadline_ms = 10000;
  /// AsyncSession's policy when a tick still fails after retry.
  FailurePolicy failure_policy = FailurePolicy::fail_fast;
  /// Local backend re-running a failed tick under FailurePolicy::degrade
  /// (registry key; validated at AsyncSession construction).
  std::string fallback_backend = "igpr";

  // --- scratch backend / initial partitioning ---
  /// "rsb" (recursive spectral bisection), "rgb" (BFS bisection), or
  /// "rsb+kl" (RSB polished with Kernighan–Lin).
  std::string scratch_method = "rsb";

  // --- delta batching ---
  BatchPolicy batch_policy = BatchPolicy::every_delta;
  /// BatchPolicy::imbalance trigger: repartition when max W(q) / avg W
  /// exceeds this (>= 1.0).
  double batch_imbalance_limit = 1.10;
  /// BatchPolicy::vertex_count trigger: repartition when the number of
  /// vertices added + removed since the last repartition reaches this.
  int batch_vertex_limit = 256;

  // --- graph compaction (deltas with removals) ---
  GraphCompaction graph_compaction = GraphCompaction::eager;
  /// GraphCompaction::deferred trigger: compact when dead vertices exceed
  /// this fraction of the id space, or abandoned adjacency slots (the old
  /// blocks of relocated rows and the rows of removed vertices, i.e.
  /// Graph::adjacency_slack()) exceed this fraction of the adjacency slab.
  /// Free slots in a live row's reserve are not abandoned.  In (0, 1].
  double compaction_slack = 0.5;

  // --- async session (AsyncSession only; ignored by Session) ---
  /// Capacity of the bounded ingest queue: how many submitted deltas may
  /// be in flight before submit() blocks (backpressure).  >= 1.
  int async_queue_capacity = 256;

  /// Validate every field (throws pigp::ConfigError naming the offending
  /// field) and propagate the knobs into the core option
  /// structs.  The one and only derivation path.
  [[nodiscard]] ResolvedConfig resolve() const;
};

/// The BatchPolicy rule, written once for Session and AsyncSession: is a
/// repartition due with \p pending_vertex_changes absorbed since the last
/// one and the partitioning described by \p state (whose imbalance() only
/// BatchPolicy::imbalance reads)?  every_delta is always due.
[[nodiscard]] bool batch_due(const SessionConfig& config,
                             std::int64_t pending_vertex_changes,
                             const graph::PartitionState& state);

/// A validated SessionConfig plus the fully-propagated core options.
struct ResolvedConfig {
  SessionConfig session;
  /// Empty; kept only while the benchmark harness passes it to
  /// extend_assignment_state (ROADMAP item 1 drops both).
  core::AssignOptions assign;
  /// igp.refine is true here; backends that skip refinement clear it.
  core::IgpOptions igp;
  core::MultilevelOptions multilevel;
};

}  // namespace pigp
