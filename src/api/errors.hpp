#pragma once

/// \file errors.hpp
/// The typed pigp error taxonomy.
///
/// Every error the API layer throws derives from pigp::Error, which itself
/// derives from pigp::CheckError (the exception PIGP_CHECK has always
/// thrown), so pre-taxonomy catch sites keep working while new code can
/// catch by cause:
///
///   * ConfigError          — an invalid SessionConfig field, an invalid
///                            backend registration, or a graph/partitioning
///                            pair that contradicts the config (wrong part
///                            count, empty graph).
///   * UnknownBackendError  — SessionConfig.backend names no registered
///                            backend; carries the registered names both in
///                            the message and programmatically through
///                            known_backends().
///   * DeltaError           — a stream operation whose arguments cannot be
///                            applied to the session's current graph
///                            (apply_extended with a non-matching n_old,
///                            adopt_rebalance with an incompatible
///                            partitioning, swap_in_rebalance with buffers
///                            that are not a copy of the current graph,
///                            submissions to a closed AsyncSession).
///   * TransportError       — the SPMD wire failed (peer closed, socket
///                            timeout, malformed frame).  Defined in
///                            runtime/net/error.hpp, re-exported here.
///                            Carries a retryable-vs-fatal FaultClass: the
///                            "spmd" backend retries retryable ones under
///                            SessionConfig.rebalance_retry_*; one that
///                            still escapes leaves the Session sticky-
///                            failed (transport_failed()) until
///                            clear_error().  AsyncSession additionally
///                            consults SessionConfig.failure_policy —
///                            degrade reroutes the tick to a local
///                            fallback backend instead of latching.
///
/// Deeper layers (graph::apply_delta, the LP core) still throw CheckError
/// directly for malformed inputs; the taxonomy covers the API surface where
/// callers realistically dispatch on the cause.

#include <string>
#include <string_view>
#include <vector>

#include "runtime/net/error.hpp"
#include "support/check.hpp"

namespace pigp {

/// Re-export: the SPMD wire failure (see runtime/net/error.hpp).  Not part
/// of the Error branch — it originates below the API layer — but catchable
/// as pigp::CheckError like everything else.  FaultClass rides along for
/// callers implementing their own retry policy.
using net::FaultClass;
using net::TransportError;

/// Base of the typed error taxonomy.  Derives from CheckError so existing
/// `catch (const pigp::CheckError&)` sites see every API error too.
class Error : public CheckError {
 public:
  explicit Error(const std::string& what) : CheckError(what) {}
};

/// An invalid configuration value — SessionConfig::resolve() names the
/// offending field in the message.
class ConfigError : public Error {
 public:
  explicit ConfigError(const std::string& what) : Error(what) {}
};

/// SessionConfig.backend names no registered backend.
class UnknownBackendError : public Error {
 public:
  UnknownBackendError(std::string_view name, std::vector<std::string> known)
      : Error(format(name, known)), known_backends_(std::move(known)) {}

  /// The names registered at throw time (sorted), for programmatic
  /// "did you mean" handling; the what() message lists them too.
  [[nodiscard]] const std::vector<std::string>& known_backends()
      const noexcept {
    return known_backends_;
  }

 private:
  static std::string format(std::string_view name,
                            const std::vector<std::string>& known) {
    std::string out = "unknown backend \"";
    out += name;
    out += "\"; registered backends:";
    for (const std::string& k : known) {
      out += ' ';
      out += k;
    }
    return out;
  }

  std::vector<std::string> known_backends_;
};

/// A stream operation incompatible with the session's current graph.
/// Session::apply validates the whole delta up front
/// (graph::validate_delta), so an operation rejected with this — or with
/// the CheckError the validator throws — left graph, partitioning and
/// state untouched: the strong exception guarantee, not a torn apply.
class DeltaError : public Error {
 public:
  explicit DeltaError(const std::string& what) : Error(what) {}
};

}  // namespace pigp
