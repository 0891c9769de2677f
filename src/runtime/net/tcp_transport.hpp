#pragma once

/// \file tcp_transport.hpp
/// Transport over TCP sockets — one process (or thread) per rank.
///
/// Wire frame (all integers little-endian host order):
///
///   [u32 magic 0x50494750 "PIGP"] [u8 version = 1]
///   [u8 filter_count] [filter_count * u8 filter id]
///   [u64 payload_len] [payload bytes]
///
/// The payload is the packet's tagged byte image after the sender's filter
/// chain (filters.hpp) has been applied; the header records the applied
/// filter ids so the receiver decodes with exactly the sender's chain.
/// A frame with a bad magic/version, an unknown filter id, or an
/// implausible payload length (over 1 TiB) is rejected with TransportError
/// before any large allocation.  Below that cap the reader grows the
/// payload buffer only as bytes arrive, so a corrupt length that the peer
/// does not back with bytes ends in a TransportError (the peer closes or
/// the recv timeout fires), never in a huge allocation.
///
/// Connection mesh: rank r binds a listener at endpoints[r] (or adopts a
/// pre-bound fd, see below), then actively connects to every LOWER rank
/// and accepts one connection from every HIGHER rank.  Each active
/// connection opens with a one-byte hello carrying the connector's rank,
/// which is how the acceptor maps sockets to peers.  Active connects retry
/// with exponential backoff until TcpOptions::connect_timeout_ms is
/// exhausted, so workers may be launched in any order (the kernel's listen
/// backlog holds early connections until the peer reaches accept).
///
/// FIFO per sender is inherited from TCP's in-order delivery: each rank
/// pair shares one dedicated socket.  recv honors
/// TcpOptions::recv_timeout_ms (SO_RCVTIMEO) and surfaces expiry — and a
/// peer closing its end mid-protocol — as TransportError, so a dead worker
/// releases its peers instead of hanging them.

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "runtime/net/filters.hpp"
#include "runtime/net/transport.hpp"

namespace pigp::net {

/// Socket/wire tuning for TcpTransport.
struct TcpOptions {
  /// Total budget for establishing each outgoing connection (retries with
  /// backoff inside this budget; workers may start in any order).
  int connect_timeout_ms = 10000;
  /// Initial retry backoff; doubles per attempt, capped at 500 ms.
  int connect_backoff_ms = 10;
  int send_timeout_ms = 30000;
  int recv_timeout_ms = 30000;
  /// Comma-separated wire filter chain spec ("", "delta", "delta,zlib").
  std::string filters;
};

/// Where a rank listens.
struct TcpEndpoint {
  std::string host;
  std::uint16_t port = 0;
};

/// TCP-backed Transport; see the file comment for the wire protocol.
/// Collectives are the hub-at-rank-0 defaults from Transport.  Not
/// thread-safe: one rank's transport belongs to one thread.
class TcpTransport final : public Transport {
 public:
  /// Bind a listener at endpoints[rank], then establish the full mesh.
  TcpTransport(int rank, std::vector<TcpEndpoint> endpoints,
               TcpOptions options = {});

  /// Adopt a pre-bound listening socket (ephemeral-port tests and
  /// launchers that bind before forking, eliminating port races).  Takes
  /// ownership of \p listen_fd.
  TcpTransport(int rank, std::vector<TcpEndpoint> endpoints, int listen_fd,
               TcpOptions options = {});

  ~TcpTransport() override;
  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  [[nodiscard]] int rank() const noexcept override { return rank_; }
  [[nodiscard]] int num_ranks() const noexcept override {
    return static_cast<int>(endpoints_.size());
  }

  void send(int to, Packet packet) override;
  [[nodiscard]] Packet recv(int from) override;

  /// Close every socket.  Idempotent; also run by the destructor.  After
  /// close() any send/recv throws TransportError, and peers blocked in
  /// recv on this rank observe an orderly peer-closed failure.
  void close() noexcept;

  /// True when the transport is open and nothing is left to read: no
  /// packet queued to self, and every peer socket would block on read (a
  /// non-blocking MSG_PEEK).  Bytes pending, or a peer that closed its
  /// end, make it false.  A connection kept for another run is only
  /// reused when this holds.
  [[nodiscard]] bool quiescent() const noexcept;

  /// Bytes written to / read from sockets (filter effectiveness metrics).
  [[nodiscard]] std::uint64_t bytes_sent() const noexcept {
    return bytes_sent_;
  }
  [[nodiscard]] std::uint64_t bytes_received() const noexcept {
    return bytes_received_;
  }

 private:
  void establish_mesh();
  [[nodiscard]] int fd_for(int peer, const char* what) const;

  int rank_;
  std::vector<TcpEndpoint> endpoints_;
  TcpOptions options_;
  FilterChain chain_;
  std::vector<std::uint8_t> chain_ids_;
  int listen_fd_ = -1;
  std::vector<int> peer_fds_;        // per peer rank; -1 for self/closed
  std::deque<Packet> self_queue_;    // loopback for send-to-self
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t bytes_received_ = 0;
  bool closed_ = false;
};

/// A set of pre-bound localhost listeners, one per rank — bind all before
/// constructing any transport so no rank can race a peer's bind.
struct LocalTcpGroup {
  std::vector<TcpEndpoint> endpoints;  // 127.0.0.1 with the bound ports
  std::vector<int> listen_fds;         // pass to the adopting ctor
};

/// Bind \p num_ranks ephemeral-port listeners on 127.0.0.1.
[[nodiscard]] LocalTcpGroup make_local_tcp_group(int num_ranks);

/// Run an SPMD body once on \p num_ranks threads in THIS process, each
/// rank speaking real TCP over loopback sockets: a one-shot RankGroup
/// (rank_group.hpp) that builds the mesh, runs \p body once and tears the
/// mesh down.  The full wire path (framing, filters, socket timeouts) is
/// exercised without managing worker processes; core::TcpLoopbackExecutor
/// keeps such a group, and its mesh, up from one run to the next.
///
/// Because the rank threads share the process address space (the in-process
/// engine mutates one shared PartitionState), each rank's transport is
/// wrapped so every collective additionally passes a process-local barrier
/// — TCP alone establishes no happens-before between threads of one
/// process, while the in-process mailboxes do through their mutexes.  A
/// rank that throws takes its arrival ticket before its sockets close,
/// then aborts the group — closing its sockets releases peers blocked in
/// recv and the local barrier wakes and fails peers waiting there — and
/// the failing rank's exception (the first by arrival time) is rethrown.
void run_tcp_loopback(int num_ranks, const TcpOptions& options,
                      const std::function<void(Transport&)>& body);

}  // namespace pigp::net
