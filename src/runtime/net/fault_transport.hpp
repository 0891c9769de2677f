#pragma once

/// \file fault_transport.hpp
/// Deterministic fault injection for any net::Transport.
///
/// FaultInjectingTransport wraps an inner Transport and injects *scripted*
/// faults at the protocol points the SPMD engine exercises — send, recv,
/// barrier, allreduce, allgather, broadcast — so the recovery machinery
/// (retryable-vs-fatal classification, per-tick retry, AsyncSession
/// degradation) can be driven through the public API instead of hand-mocked
/// transports.  Chaos here is reproducible by construction: a FaultScript
/// is an explicit list of (rank, point, op-ordinal, kind) rules, not a
/// random process, so a failing CI run names the exact injection that
/// produced it and re-running replays it bit-for-bit.
///
/// Fault kinds:
///   * delay=MS     sleep MS milliseconds before the operation (latency,
///                  never an error; MS is capped so tests stay bounded).
///   * drop         swallow a send() — the packet never reaches the peer.
///                  Only meaningful on a transport with bounded recv
///                  (TCP timeouts); on in-process mailboxes the peer would
///                  block forever, so config validation rejects the combo.
///   * corrupt      flip a structural header byte (wire tag / element
///                  size) of the outgoing payload.  The packet format is
///                  self-describing, so the receiver's checked unpack is
///                  guaranteed to surface a typed TransportError rather
///                  than silently decoding garbage.  Composes with filter
///                  chains: filters are bijective on arbitrary bytes, so
///                  the corruption survives encode/decode untouched.
///   * disconnect   throw a retryable TransportError at the matched
///                  operation (a peer dropping its end mid-protocol).
///   * kill         throw at the matched operation and at every operation
///                  after it on this transport instance (a dying rank).
///
/// A rule fires at most `times` total across the script's lifetime
/// (default 1).  Per-run operation counters live in the transport wrapper
/// (fresh per repartition attempt), but the fire budget lives in the shared
/// FaultScript — so a one-shot fault poisons exactly one attempt and the
/// retry that follows runs clean.  That asymmetry is what makes
/// "bit-identical partition after retry" a testable outcome.
///
/// Script grammar (see parse_fault_script):
///
///   spec   := entry (';' entry)*
///   entry  := 'seed=' uint | rule
///   rule   := ['rank' int ':'] point '@' ordinal ':' kind ['=' param]
///             ['/' times]
///   point  := send|recv|barrier|allreduce|allgather|broadcast|any
///   kind   := delay|drop|corrupt|disconnect|kill
///
/// Examples: "rank1:send@3:corrupt", "any@5:delay=20",
/// "rank0:any@12:kill", "recv@2:disconnect/2",
/// "seed=7;rank0:send@1:drop".  `any` matches the rank's ordinal across
/// all points combined; the seed only varies which structural byte
/// corrupt flips (both choices are detected).

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "runtime/net/packet.hpp"
#include "runtime/net/transport.hpp"
#include "runtime/sync.hpp"

namespace pigp::net {

enum class FaultKind : std::uint8_t {
  delay,
  drop,
  corrupt,
  disconnect,
  kill,
};

enum class FaultPoint : std::uint8_t {
  send,
  recv,
  barrier,
  allreduce,
  allgather,
  broadcast,
  any,  ///< matches the combined per-rank operation ordinal
};

[[nodiscard]] std::string_view to_string(FaultKind kind) noexcept;
[[nodiscard]] std::string_view to_string(FaultPoint point) noexcept;

/// One scripted fault: fires when \p rank's \p point operation counter
/// reaches \p at_op, at most \p times total (0 = unlimited).
struct FaultRule {
  int rank = -1;  ///< -1 = every rank
  FaultPoint point = FaultPoint::any;
  std::uint64_t at_op = 1;  ///< 1-based operation ordinal
  FaultKind kind = FaultKind::delay;
  std::uint64_t param = 0;  ///< delay: milliseconds
  int times = 1;            ///< total fires across the script; 0 = unlimited
};

/// A parsed fault script: immutable rules plus the shared, thread-safe
/// fire ledger.  One FaultScript is shared by every rank's wrapper and
/// survives across repartition attempts; the per-attempt operation
/// counters live in FaultInjectingTransport.
class FaultScript {
 public:
  FaultScript() = default;
  explicit FaultScript(std::vector<FaultRule> rules, std::uint64_t seed = 0);

  [[nodiscard]] const std::vector<FaultRule>& rules() const noexcept {
    return rules_;
  }
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

  /// True if any rule carries \p kind (config validation uses this to
  /// reject drop over a transport without bounded recv).
  [[nodiscard]] bool has_kind(FaultKind kind) const noexcept;

  /// Atomically consume one fire of rule \p rule_index; false when the
  /// rule's budget is exhausted.  Returns the pre-claim fire count via
  /// \p fired_before (used to vary corrupt's byte choice deterministically).
  [[nodiscard]] bool claim(std::size_t rule_index,
                           std::int64_t* fired_before = nullptr)
      PIGP_EXCLUDES(mutex_);

  /// Total fires of rule \p rule_index so far (test/telemetry accessor).
  [[nodiscard]] std::int64_t fired(std::size_t rule_index) const
      PIGP_EXCLUDES(mutex_);

 private:
  std::vector<FaultRule> rules_;
  std::uint64_t seed_ = 0;
  mutable sync::Mutex mutex_;
  std::vector<std::int64_t> fired_ PIGP_GUARDED_BY(mutex_);
};

/// Parse the script grammar in the file comment.  Returns nullptr for an
/// empty/whitespace spec; throws a fatal TransportError naming the
/// offending token otherwise (SessionConfig::resolve converts that to a
/// ConfigError).  Validation: delay requires param in [0, 1000]; drop is
/// send-only; corrupt is send/allgather/broadcast-only; at_op >= 1.
[[nodiscard]] std::shared_ptr<FaultScript> parse_fault_script(
    std::string_view spec);

/// The chaos wrapper; see file comment.  Construct one per rank per
/// attempt around that rank's real transport; all wrappers share one
/// FaultScript.  Collectives delegate to the inner transport's collectives
/// (they are one scripted operation each, not re-expressed over the
/// wrapped send/recv), so wrapping never changes reduction order and a
/// script-free wrapper is bit-transparent.
class FaultInjectingTransport final : public Transport {
 public:
  FaultInjectingTransport(Transport& inner,
                          std::shared_ptr<FaultScript> script);

  [[nodiscard]] int rank() const noexcept override { return inner_.rank(); }
  [[nodiscard]] int num_ranks() const noexcept override {
    return inner_.num_ranks();
  }

  void send(int to, Packet packet) override;
  [[nodiscard]] Packet recv(int from) override;
  void barrier() override;
  [[nodiscard]] double allreduce(
      double value,
      const std::function<double(double, double)>& op) override;
  [[nodiscard]] std::vector<Packet> allgather(Packet packet) override;
  [[nodiscard]] Packet broadcast(int root, Packet packet) override;

 private:
  /// Count the operation, then fire every matching claimable rule.
  /// Returns true when a drop rule swallowed the operation (send only).
  /// \p payload is the outgoing bytes for corrupt, null where there are
  /// none.  Throws TransportError for disconnect/kill.
  bool apply(FaultPoint point, Packet* payload);

  [[noreturn]] void throw_killed() const;

  Transport& inner_;
  std::shared_ptr<FaultScript> script_;
  /// Per-point operation counters, indexed by FaultPoint (any = combined).
  std::uint64_t ops_[7] = {};
  bool killed_ = false;
  std::uint64_t killed_at_ = 0;
};

}  // namespace pigp::net
