#include "api/config.hpp"

#include <cstddef>
#include <string>
#include <utility>

#include "api/errors.hpp"
#include "runtime/net/fault_transport.hpp"
#include "runtime/net/filters.hpp"

namespace pigp {
namespace {

/// Field-validation helper: a failed predicate throws ConfigError with the
/// message naming the offending field.
void config_check(bool ok, std::string message) {
  if (!ok) throw ConfigError(message);
}

// ------------------------------------------------------------------ guards
//
// resolve() must touch every nested option struct field that carries a
// derived value.  These field-count asserts fire at compile time when
// someone adds a field to one of the structs, so the new field cannot be
// silently skipped.

struct AnyField {
  template <typename T>
  operator T() const;  // never defined; only used in unevaluated contexts
};

template <typename T, std::size_t... I>
constexpr bool brace_constructible(std::index_sequence<I...>) {
  return requires { T{((void)I, AnyField{})...}; };
}

template <typename T, std::size_t N>
constexpr bool has_exactly_n_fields =
    brace_constructible<T>(std::make_index_sequence<N>{}) &&
    !brace_constructible<T>(std::make_index_sequence<N + 1>{});

static_assert(has_exactly_n_fields<core::AssignOptions, 0>,
              "AssignOptions changed — update SessionConfig::resolve()");
static_assert(has_exactly_n_fields<lp::NetworkOptions, 3>,
              "NetworkOptions changed — update SessionConfig::resolve()");
static_assert(has_exactly_n_fields<core::BalanceOptions, 5>,
              "BalanceOptions changed — update SessionConfig::resolve()");
static_assert(has_exactly_n_fields<core::RefineOptions, 2>,
              "RefineOptions changed — update SessionConfig::resolve()");
static_assert(has_exactly_n_fields<core::IgpOptions, 3>,
              "IgpOptions changed — update SessionConfig::resolve()");
static_assert(has_exactly_n_fields<core::MultilevelOptions, 3>,
              "MultilevelOptions changed — update SessionConfig::resolve()");
static_assert(has_exactly_n_fields<SessionConfig, 26>,
              "SessionConfig changed — update SessionConfig::resolve()");

/// Batch backends rebuild from the whole graph every tick, so they cannot
/// run against a tombstoned (deferred-compaction) graph.
bool supports_deferred_compaction(const std::string& backend) {
  return backend != "multilevel" && backend != "scratch";
}

}  // namespace

ResolvedConfig SessionConfig::resolve() const {
  config_check(num_parts >= 1,
               "SessionConfig.num_parts must be >= 1 (got " +
                   std::to_string(num_parts) + ")");
  config_check(!backend.empty(), "SessionConfig.backend must not be empty");
  config_check(num_threads == 1,
               "SessionConfig.num_threads must be 1 (got " +
                   std::to_string(num_threads) +
                   "); to rebalance in parallel, use backend \"spmd\" "
                   "with spmd_ranks > 1");
  config_check(alpha_max >= 1.0,
               "SessionConfig.alpha_max must be >= 1.0 (got " +
                   std::to_string(alpha_max) + ")");
  config_check(max_balance_stages >= 1,
               "SessionConfig.max_balance_stages must be >= 1 (got " +
                   std::to_string(max_balance_stages) + ")");
  config_check(balance_tolerance > 0.0,
               "SessionConfig.balance_tolerance must be > 0 (got " +
                   std::to_string(balance_tolerance) + ")");
  config_check(max_refine_rounds >= 0,
               "SessionConfig.max_refine_rounds must be >= 0 (got " +
                   std::to_string(max_refine_rounds) + ")");
  config_check(multilevel_coarsest_size >= 1,
               "SessionConfig.multilevel_coarsest_size must be >= 1 (got " +
                   std::to_string(multilevel_coarsest_size) + ")");
  config_check(multilevel_max_levels >= 1,
               "SessionConfig.multilevel_max_levels must be >= 1 (got " +
                   std::to_string(multilevel_max_levels) + ")");
  config_check(spmd_ranks >= 1,
               "SessionConfig.spmd_ranks must be >= 1 (got " +
                   std::to_string(spmd_ranks) + ")");
  config_check(spmd_transport == "in_process" || spmd_transport == "tcp",
               "SessionConfig.spmd_transport must be one of in_process, tcp "
               "(got \"" +
                   spmd_transport + "\")");
  try {
    (void)net::parse_filter_chain(spmd_wire_filters);
  } catch (const CheckError& e) {
    throw ConfigError("SessionConfig.spmd_wire_filters is invalid: " +
                      std::string(e.what()));
  }
  config_check(spmd_timeout_ms >= 1,
               "SessionConfig.spmd_timeout_ms must be >= 1 (got " +
                   std::to_string(spmd_timeout_ms) + ")");
  try {
    const std::shared_ptr<net::FaultScript> script =
        net::parse_fault_script(spmd_fault_spec);
    // A dropped packet only becomes a *typed* failure when recv is
    // bounded; on in-process mailboxes the starved peer would block forever.
    config_check(script == nullptr ||
                     !script->has_kind(net::FaultKind::drop) ||
                     spmd_transport == "tcp",
                 "SessionConfig.spmd_fault_spec: drop rules need "
                 "spmd_transport == \"tcp\" (in_process recv has no "
                 "timeout, so a dropped packet would hang the peer)");
  } catch (const ConfigError&) {
    throw;
  } catch (const CheckError& e) {
    throw ConfigError("SessionConfig.spmd_fault_spec is invalid: " +
                      std::string(e.what()));
  }
  config_check(rebalance_retry_limit >= 0,
               "SessionConfig.rebalance_retry_limit must be >= 0 (got " +
                   std::to_string(rebalance_retry_limit) + ")");
  config_check(
      rebalance_retry_backoff_ms >= 1,
      "SessionConfig.rebalance_retry_backoff_ms must be >= 1 (got " +
          std::to_string(rebalance_retry_backoff_ms) + ")");
  config_check(
      rebalance_retry_deadline_ms >= 1,
      "SessionConfig.rebalance_retry_deadline_ms must be >= 1 (got " +
          std::to_string(rebalance_retry_deadline_ms) + ")");
  config_check(!fallback_backend.empty(),
               "SessionConfig.fallback_backend must not be empty");
  config_check(scratch_method == "rsb" || scratch_method == "rgb" ||
                   scratch_method == "rsb+kl",
               "SessionConfig.scratch_method must be one of rsb, rgb, rsb+kl "
               "(got \"" +
                   scratch_method + "\")");
  config_check(batch_imbalance_limit >= 1.0,
               "SessionConfig.batch_imbalance_limit must be >= 1.0 (got " +
                   std::to_string(batch_imbalance_limit) + ")");
  config_check(batch_vertex_limit >= 1,
               "SessionConfig.batch_vertex_limit must be >= 1 (got " +
                   std::to_string(batch_vertex_limit) + ")");
  config_check(compaction_slack > 0.0 && compaction_slack <= 1.0,
               "SessionConfig.compaction_slack must be in (0, 1] (got " +
                   std::to_string(compaction_slack) + ")");
  if (graph_compaction == GraphCompaction::deferred) {
    config_check(supports_deferred_compaction(backend),
                 "SessionConfig.graph_compaction = deferred requires an "
                 "in-place backend (got backend \"" +
                     backend + "\")");
    config_check(failure_policy != FailurePolicy::degrade ||
                     supports_deferred_compaction(fallback_backend),
                 "SessionConfig.graph_compaction = deferred requires an "
                 "in-place fallback_backend under FailurePolicy::degrade "
                 "(got \"" +
                     fallback_backend + "\")");
  }
  config_check(async_queue_capacity >= 1,
               "SessionConfig.async_queue_capacity must be >= 1 (got " +
                   std::to_string(async_queue_capacity) + ")");

  ResolvedConfig resolved;
  resolved.session = *this;

  core::IgpOptions& igp = resolved.igp;
  igp.refine = true;  // backends without a refinement pass clear this

  igp.balance.alpha_max = alpha_max;
  igp.balance.max_stages = max_balance_stages;
  igp.balance.tolerance = balance_tolerance;

  igp.refinement.max_rounds = max_refine_rounds;

  resolved.multilevel.igp = igp;
  resolved.multilevel.coarsest_size = multilevel_coarsest_size;
  resolved.multilevel.max_levels = multilevel_max_levels;

  return resolved;
}

bool batch_due(const SessionConfig& config,
               std::int64_t pending_vertex_changes,
               const graph::PartitionState& state) {
  switch (config.batch_policy) {
    case BatchPolicy::every_delta:
      return true;
    case BatchPolicy::vertex_count:
      return pending_vertex_changes >= config.batch_vertex_limit;
    case BatchPolicy::imbalance:
      return state.imbalance() > config.batch_imbalance_limit;
  }
  return false;
}

}  // namespace pigp
