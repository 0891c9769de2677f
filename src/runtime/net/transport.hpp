#pragma once

/// \file transport.hpp
/// The pluggable SPMD transport interface.
///
/// Transport is the seam between the SPMD engine (core/spmd_igp,
/// core/spmd_worker) and whatever moves packets between ranks.  The engine
/// is written against this interface only.  A carrier implements send and
/// recv; the collectives are the defaults below, so every carrier runs the
/// same collective code.  The carriers are
///
///   * in-process mailboxes: one thread per rank in this process — the
///     reference carrier of the parity tests (run_in_process below, or a
///     net::RankGroup that keeps its threads and mailboxes between runs).
///   * TcpTransport (tcp_transport.hpp): length-prefixed frames over
///     localhost/LAN sockets, one process per rank, or one thread per rank
///     of a loopback RankGroup (run_tcp_loopback).
///
/// The base class provides the collectives over point-to-point send/recv,
/// with rank 0 as the hub.  The reduction is applied in rank order
/// (acc = slot[0], then op(acc, slot[r]) for r = 1..n-1), so
/// non-associative floating-point ops give bit-identical results on every
/// carrier.

#include <functional>
#include <vector>

#include "runtime/net/packet.hpp"

namespace pigp::net {

/// Abstract rank-to-rank message channel plus collectives; see file
/// comment.  Implementations must deliver packets FIFO per (sender,
/// receiver) pair.  All errors surface as TransportError.
class Transport {
 public:
  virtual ~Transport() = default;

  [[nodiscard]] virtual int rank() const noexcept = 0;
  [[nodiscard]] virtual int num_ranks() const noexcept = 0;

  /// Point-to-point send (non-blocking; the packet is queued or written
  /// out).  Sending to self is allowed and delivered via recv(rank()).
  virtual void send(int to, Packet packet) = 0;

  /// Blocking receive of the next packet from \p from (FIFO per sender).
  [[nodiscard]] virtual Packet recv(int from) = 0;

  /// Collective barrier; all ranks must call it.
  virtual void barrier();

  /// Collective: combine one double per rank with \p op in rank order
  /// (deterministic for non-associative ops).
  [[nodiscard]] virtual double allreduce(
      double value, const std::function<double(double, double)>& op);

  /// Collective: every rank receives the per-rank packets in rank order.
  [[nodiscard]] virtual std::vector<Packet> allgather(Packet packet);

  /// Collective: \p root's packet is delivered to all ranks (including
  /// back to the root).
  [[nodiscard]] virtual Packet broadcast(int root, Packet packet);
};

/// Run \p body once on \p num_ranks threads of this process, each rank
/// speaking over in-process mailboxes (FIFO per sender/receiver pair): a
/// one-shot net::RankGroup (rank_group.hpp) that builds the threads and
/// mailboxes, runs once and tears them down; core::MachineExecutor keeps
/// such a group up between runs.  A rank that throws aborts the run:
/// peers blocked in recv — and so in any collective — fail with a
/// TransportError, every rank is joined, and the failing rank's exception
/// (the first by arrival time) is rethrown.  A rank outside the group in
/// send/recv/broadcast is a fatal TransportError.
void run_in_process(int num_ranks,
                    const std::function<void(Transport&)>& body);

}  // namespace pigp::net
