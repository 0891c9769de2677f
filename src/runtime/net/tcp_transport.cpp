#include "runtime/net/tcp_transport.hpp"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <system_error>
#include <thread>


namespace pigp::net {
namespace {

constexpr std::uint32_t kFrameMagic = 0x50494750;  // "PIGP"
constexpr std::uint8_t kFrameVersion = 1;
// A frame claiming more than this is corruption, not a real message; the
// cap keeps a flipped length byte from demanding a terabyte allocation.
constexpr std::uint64_t kMaxPayloadBytes = 1ULL << 40;

[[noreturn]] void throw_errno(const std::string& what, int err) {
  // generic_category().message instead of strerror: rank threads can fail
  // concurrently, and strerror's shared buffer is not thread-safe
  // (clang-tidy concurrency-mt-unsafe).
  throw TransportError(what + ": " + std::generic_category().message(err));
}

void set_socket_timeouts(int fd, const TcpOptions& options) {
  const auto to_timeval = [](int ms) {
    timeval tv{};
    tv.tv_sec = ms / 1000;
    tv.tv_usec = (ms % 1000) * 1000;
    return tv;
  };
  const timeval rcv = to_timeval(options.recv_timeout_ms);
  const timeval snd = to_timeval(options.send_timeout_ms);
  (void)::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &rcv, sizeof(rcv));
  (void)::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &snd, sizeof(snd));
  const int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

sockaddr_in resolve(const TcpEndpoint& endpoint) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(endpoint.port);
  if (::inet_pton(AF_INET, endpoint.host.c_str(), &addr.sin_addr) == 1) {
    return addr;
  }
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* result = nullptr;
  const int rc = ::getaddrinfo(endpoint.host.c_str(), nullptr, &hints,
                               &result);
  if (rc != 0 || result == nullptr) {
    // glibc's gai_strerror returns pointers into a static table of
    // constant strings, which is MT-safe in practice; POSIX does not
    // guarantee it, hence the suppression.
    throw TransportError("cannot resolve host \"" + endpoint.host + "\": " +
                         ::gai_strerror(rc));  // NOLINT(concurrency-mt-unsafe)
  }
  addr.sin_addr =
      reinterpret_cast<sockaddr_in*>(result->ai_addr)->sin_addr;
  ::freeaddrinfo(result);
  return addr;
}

void write_all(int fd, const std::uint8_t* data, std::size_t size) {
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n =
        ::send(fd, data + done, size - done, MSG_NOSIGNAL);
    if (n > 0) {
      done += static_cast<std::size_t>(n);
      continue;
    }
    const int err = errno;
    if (err == EINTR) continue;
    if (err == EAGAIN || err == EWOULDBLOCK) {
      throw TransportError("send timed out");
    }
    if (err == EPIPE || err == ECONNRESET) {
      throw TransportError("peer closed the connection during send");
    }
    throw_errno("send failed", err);
  }
}

void read_exact(int fd, std::uint8_t* data, std::size_t size) {
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::recv(fd, data + done, size - done, 0);
    if (n > 0) {
      done += static_cast<std::size_t>(n);
      continue;
    }
    if (n == 0) {
      throw TransportError("peer closed the connection");
    }
    const int err = errno;
    if (err == EINTR) continue;
    if (err == EAGAIN || err == EWOULDBLOCK) {
      throw TransportError("recv timed out");
    }
    throw_errno("recv failed", err);
  }
}

int bind_listener(const TcpEndpoint& endpoint, int backlog) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket failed", errno);
  const int one = 1;
  (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr = resolve(endpoint);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int err = errno;
    ::close(fd);
    throw_errno("bind to " + endpoint.host + ":" +
                    std::to_string(endpoint.port) + " failed",
                err);
  }
  if (::listen(fd, std::max(backlog, 1)) != 0) {
    const int err = errno;
    ::close(fd);
    throw_errno("listen failed", err);
  }
  return fd;
}

}  // namespace

// ------------------------------------------------------------ TcpTransport

TcpTransport::TcpTransport(int rank, std::vector<TcpEndpoint> endpoints,
                           TcpOptions options)
    : rank_(rank),
      endpoints_(std::move(endpoints)),
      options_(std::move(options)) {
  if (rank_ < 0 || rank_ >= static_cast<int>(endpoints_.size())) {
    throw TransportError("rank out of range of the endpoint list",
                         FaultClass::fatal);
  }
  chain_ = parse_filter_chain(options_.filters);
  for (const auto& filter : chain_) chain_ids_.push_back(filter->id());
  listen_fd_ = bind_listener(endpoints_[static_cast<std::size_t>(rank_)],
                             num_ranks());
  try {
    establish_mesh();
  } catch (...) {
    close();
    throw;
  }
}

TcpTransport::TcpTransport(int rank, std::vector<TcpEndpoint> endpoints,
                           int listen_fd, TcpOptions options)
    : rank_(rank),
      endpoints_(std::move(endpoints)),
      options_(std::move(options)),
      listen_fd_(listen_fd) {
  if (rank_ < 0 || rank_ >= static_cast<int>(endpoints_.size())) {
    close();
    throw TransportError("rank out of range of the endpoint list",
                         FaultClass::fatal);
  }
  try {
    chain_ = parse_filter_chain(options_.filters);
    for (const auto& filter : chain_) chain_ids_.push_back(filter->id());
    establish_mesh();
  } catch (...) {
    close();
    throw;
  }
}

TcpTransport::~TcpTransport() { close(); }

void TcpTransport::establish_mesh() {
  using Clock = std::chrono::steady_clock;
  const int n = num_ranks();
  peer_fds_.assign(static_cast<std::size_t>(n), -1);

  // Actively connect to every lower rank.  A lower rank's listener may not
  // be bound yet (workers launch in any order), so retry with exponential
  // backoff inside the connect budget.  Completed connects park in the
  // peer's kernel listen backlog until it reaches its accept loop, so the
  // sequential connect-then-accept phases below cannot deadlock.
  for (int peer = 0; peer < rank_; ++peer) {
    const sockaddr_in addr =
        resolve(endpoints_[static_cast<std::size_t>(peer)]);
    const auto deadline =
        Clock::now() + std::chrono::milliseconds(options_.connect_timeout_ms);
    int backoff_ms = std::max(1, options_.connect_backoff_ms);
    for (;;) {
      const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
      if (fd < 0) throw_errno("socket failed", errno);
      set_socket_timeouts(fd, options_);
      if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                    sizeof(addr)) == 0) {
        // Hello byte: tell the acceptor which rank this socket is.
        const auto hello = static_cast<std::uint8_t>(rank_);
        write_all(fd, &hello, 1);
        peer_fds_[static_cast<std::size_t>(peer)] = fd;
        break;
      }
      const int err = errno;
      ::close(fd);
      if (Clock::now() >= deadline) {
        throw_errno("connect to rank " + std::to_string(peer) + " at " +
                        endpoints_[static_cast<std::size_t>(peer)].host +
                        ":" +
                        std::to_string(
                            endpoints_[static_cast<std::size_t>(peer)]
                                .port) +
                        " exhausted its retry budget",
                    err);
      }
      // Clamp the sleep to the time left in the budget: an unclamped
      // backoff (e.g. 500ms against a 10ms budget) would overshoot the
      // deadline by a whole backoff step before the check above runs.
      const auto remaining =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              deadline - Clock::now());
      std::this_thread::sleep_for(
          std::min(std::chrono::milliseconds(backoff_ms),
                   std::max(remaining, std::chrono::milliseconds(0))));
      backoff_ms = std::min(backoff_ms * 2, 500);
    }
  }

  // Accept one connection from every higher rank; the hello byte says who.
  timeval accept_timeout{};
  accept_timeout.tv_sec = options_.connect_timeout_ms / 1000;
  accept_timeout.tv_usec = (options_.connect_timeout_ms % 1000) * 1000;
  (void)::setsockopt(listen_fd_, SOL_SOCKET, SO_RCVTIMEO, &accept_timeout,
                     sizeof(accept_timeout));
  for (int pending = n - 1 - rank_; pending > 0; --pending) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      const int err = errno;
      if (err == EAGAIN || err == EWOULDBLOCK) {
        throw TransportError("timed out waiting for " +
                             std::to_string(pending) +
                             " higher-ranked peer(s) to connect");
      }
      throw_errno("accept failed", err);
    }
    set_socket_timeouts(fd, options_);
    std::uint8_t hello = 0;
    read_exact(fd, &hello, 1);
    const int peer = hello;
    if (peer <= rank_ || peer >= n ||
        peer_fds_[static_cast<std::size_t>(peer)] != -1) {
      ::close(fd);
      throw TransportError("unexpected hello from rank " +
                           std::to_string(peer));
    }
    peer_fds_[static_cast<std::size_t>(peer)] = fd;
  }
}

int TcpTransport::fd_for(int peer, const char* what) const {
  // All three are caller bugs, not wire trouble: the identical call can
  // only fail the identical way, so they classify fatal (no retry).
  if (peer < 0 || peer >= num_ranks()) {
    throw TransportError(std::string(what) + ": rank out of range",
                         FaultClass::fatal);
  }
  if (closed_) {
    throw TransportError(std::string(what) + " on a closed transport",
                         FaultClass::fatal);
  }
  const int fd = peer_fds_[static_cast<std::size_t>(peer)];
  if (fd < 0) {
    throw TransportError(std::string(what) + ": no connection to rank " +
                             std::to_string(peer),
                         FaultClass::fatal);
  }
  return fd;
}

void TcpTransport::send(int to, Packet packet) {
  if (to == rank_) {
    self_queue_.push_back(std::move(packet));
    return;
  }
  const int fd = fd_for(to, "send");
  std::vector<std::uint8_t> payload =
      encode_through(chain_, packet.release_bytes());

  std::vector<std::uint8_t> header;
  header.reserve(4 + 1 + 1 + chain_ids_.size() + 8);
  const auto* magic = reinterpret_cast<const std::uint8_t*>(&kFrameMagic);
  header.insert(header.end(), magic, magic + 4);
  header.push_back(kFrameVersion);
  header.push_back(static_cast<std::uint8_t>(chain_ids_.size()));
  header.insert(header.end(), chain_ids_.begin(), chain_ids_.end());
  const auto payload_len = static_cast<std::uint64_t>(payload.size());
  const auto* len = reinterpret_cast<const std::uint8_t*>(&payload_len);
  header.insert(header.end(), len, len + 8);

  write_all(fd, header.data(), header.size());
  if (!payload.empty()) write_all(fd, payload.data(), payload.size());
  bytes_sent_ += header.size() + payload.size();
}

Packet TcpTransport::recv(int from) {
  if (from == rank_) {
    if (self_queue_.empty()) {
      throw TransportError(
          "recv from self with nothing queued (single-threaded transport "
          "cannot block on itself)",
          FaultClass::fatal);
    }
    Packet packet = std::move(self_queue_.front());
    self_queue_.pop_front();
    return packet;
  }
  const int fd = fd_for(from, "recv");

  std::uint8_t fixed[6];
  read_exact(fd, fixed, sizeof(fixed));
  std::uint32_t magic = 0;
  std::memcpy(&magic, fixed, 4);
  if (magic != kFrameMagic) {
    throw TransportError("bad frame magic (stream out of sync?)");
  }
  if (fixed[4] != kFrameVersion) {
    // A peer speaking another protocol version will still speak it on the
    // next attempt — structural, not transient.
    throw TransportError("unsupported frame version " +
                             std::to_string(static_cast<int>(fixed[4])),
                         FaultClass::fatal);
  }
  std::vector<std::uint8_t> filter_ids(fixed[5]);
  if (!filter_ids.empty()) {
    read_exact(fd, filter_ids.data(), filter_ids.size());
  }
  std::uint8_t len_bytes[8];
  read_exact(fd, len_bytes, sizeof(len_bytes));
  std::uint64_t payload_len = 0;
  std::memcpy(&payload_len, len_bytes, 8);
  if (payload_len > kMaxPayloadBytes) {
    throw TransportError("frame claims implausible payload of " +
                         std::to_string(payload_len) + " bytes");
  }
  std::vector<std::uint8_t> payload(
      static_cast<std::size_t>(payload_len));
  if (!payload.empty()) read_exact(fd, payload.data(), payload.size());
  bytes_received_ += sizeof(fixed) + filter_ids.size() + 8 + payload_len;
  return Packet::from_bytes(decode_through(filter_ids, std::move(payload)));
}

void TcpTransport::close() noexcept {
  closed_ = true;
  for (int& fd : peer_fds_) {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  listen_fd_ = -1;
}

// ---------------------------------------------------------- LocalTcpGroup

LocalTcpGroup make_local_tcp_group(int num_ranks) {
  if (num_ranks < 1) {
    throw TransportError("a TCP group needs at least one rank",
                         FaultClass::fatal);
  }
  LocalTcpGroup group;
  group.endpoints.resize(static_cast<std::size_t>(num_ranks));
  group.listen_fds.resize(static_cast<std::size_t>(num_ranks), -1);
  try {
    for (int r = 0; r < num_ranks; ++r) {
      TcpEndpoint endpoint{"127.0.0.1", 0};
      const int fd = bind_listener(endpoint, num_ranks);
      sockaddr_in addr{};
      socklen_t addr_len = sizeof(addr);
      if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr),
                        &addr_len) != 0) {
        const int err = errno;
        ::close(fd);
        throw_errno("getsockname failed", err);
      }
      endpoint.port = ntohs(addr.sin_port);
      group.endpoints[static_cast<std::size_t>(r)] = endpoint;
      group.listen_fds[static_cast<std::size_t>(r)] = fd;
    }
  } catch (...) {
    for (const int fd : group.listen_fds) {
      if (fd >= 0) ::close(fd);
    }
    throw;
  }
  return group;
}

}  // namespace pigp::net
