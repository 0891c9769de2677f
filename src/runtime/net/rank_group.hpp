#pragma once

/// \file rank_group.hpp
/// The one SPMD rank-thread runner: a group of rank threads, each with its
/// own Transport, that stays up from one run to the next.
///
/// The paper's ranks are CM-5 nodes that stay up for the whole run, and an
/// MPI code keeps its ranks and communicator for a whole partitioning run.
/// A RankGroup does the same in one process: its first run() starts the
/// rank threads and builds each rank's transport — the in-process
/// mailboxes, or a connected loopback TCP mesh — and later runs reuse
/// them.  Between runs the rank threads park on a condition variable; each
/// run() hands them the body by reference and returns when every rank has
/// finished.  The calling thread runs rank 0 itself.
///
/// A failed run discards the group.  A rank whose body throws takes its
/// arrival ticket before it releases its peers (closing its sockets,
/// aborting the mailboxes and the collective barrier), so a peer that
/// fails on the closed socket can never take an earlier ticket.  Once
/// every rank has finished, all threads are joined, the carrier is closed,
/// and the earliest failure is rethrown; the next run() builds a fresh
/// group.  A run that returns cleanly but leaves a packet unread on any
/// channel — a queued mailbox packet, bytes pending on a peer socket —
/// fails with a fatal TransportError and discards the group too, so no
/// packet of one run is ever read by the next.
///
/// run_in_process (transport.hpp) and run_tcp_loopback (tcp_transport.hpp)
/// are one-shot uses of this runner: build, run once, tear down.

#include <functional>
#include <memory>
#include <optional>

#include "runtime/net/tcp_transport.hpp"
#include "runtime/net/transport.hpp"

namespace pigp::net {

/// A persistent group of SPMD rank threads; see the file comment.  Not
/// thread-safe: one caller at a time.
class RankGroup {
 public:
  /// Ranks over in-process mailboxes (FIFO per sender/receiver pair).
  explicit RankGroup(int num_ranks);
  /// Ranks speaking real TCP over a loopback mesh with \p options.  Every
  /// collective additionally passes a process-local barrier: TCP alone
  /// orders nothing between threads of one process.
  RankGroup(int num_ranks, TcpOptions options);

  /// Stops and joins the parked rank threads and closes the carrier.
  ~RankGroup();
  RankGroup(const RankGroup&) = delete;
  RankGroup& operator=(const RankGroup&) = delete;

  [[nodiscard]] int num_ranks() const noexcept { return num_ranks_; }

  /// Run \p body once per rank and return when every rank has finished.
  /// Builds the group first if none is up.  A rank's exception discards
  /// the group and is rethrown (the first by arrival); a clean run that
  /// leaves a packet unread discards it with a fatal TransportError; a
  /// rank thread that cannot start is a TransportError.  Fewer than one
  /// rank is a fatal TransportError.
  void run(const std::function<void(Transport&)>& body);

 private:
  class Live;  // the started threads and the carrier they share

  [[nodiscard]] std::unique_ptr<Live> build() const;

  int num_ranks_;
  std::optional<TcpOptions> tcp_;  // nullopt: in-process mailboxes
  std::unique_ptr<Live> live_;
};

}  // namespace pigp::net
