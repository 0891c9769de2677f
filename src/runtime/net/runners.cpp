// The one SPMD rank-thread runner, net::RankGroup, and the two carriers
// it runs over: in-process mailboxes and a loopback TCP mesh.
// run_in_process and run_tcp_loopback are one-shot uses of it.

#include "runtime/net/rank_group.hpp"

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "runtime/net/tcp_transport.hpp"
#include "runtime/net/transport.hpp"
#include "runtime/sync.hpp"

namespace pigp::net {
namespace {

// ------------------------------------------------------------ in-process

/// One rank's inbox, kept for the group's lifetime: queues[from] is the
/// FIFO of packets from rank `from`.  aborted wakes the owner out of a
/// blocked recv.
struct Mailbox {
  explicit Mailbox(int num_ranks)
      : queues(static_cast<std::size_t>(num_ranks)) {}

  sync::Mutex mutex;
  sync::CondVar cv;
  std::vector<std::deque<Packet>> queues PIGP_GUARDED_BY(mutex);
  bool aborted PIGP_GUARDED_BY(mutex) = false;
};

/// The in-process carrier: point-to-point over the group's mailboxes, the
/// collectives inherited from Transport.
class MailboxTransport final : public Transport {
 public:
  MailboxTransport(std::deque<Mailbox>& boxes, int rank)
      : boxes_(boxes), rank_(rank) {}

  [[nodiscard]] int rank() const noexcept override { return rank_; }
  [[nodiscard]] int num_ranks() const noexcept override {
    return static_cast<int>(boxes_.size());
  }

  void send(int to, Packet packet) override {
    Mailbox& box = boxes_[checked(to, "send")];
    {
      sync::MutexLock lock(box.mutex);
      box.queues[static_cast<std::size_t>(rank_)].push_back(
          std::move(packet));
    }
    box.cv.notify_one();  // only the owning rank waits on its box
  }

  [[nodiscard]] Packet recv(int from) override {
    const std::size_t sender = checked(from, "recv");
    Mailbox& box = boxes_[static_cast<std::size_t>(rank_)];
    sync::MutexLock lock(box.mutex);
    std::deque<Packet>& queue = box.queues[sender];
    while (queue.empty() && !box.aborted) box.cv.wait(box.mutex);
    if (queue.empty()) {
      throw TransportError("recv: a peer rank failed and the run aborted");
    }
    Packet packet = std::move(queue.front());
    queue.pop_front();
    return packet;
  }

 private:
  /// A rank outside the group is a caller bug: fatal, like TcpTransport's.
  [[nodiscard]] std::size_t checked(int peer, const char* what) const {
    if (peer < 0 || peer >= num_ranks()) {
      throw TransportError(std::string(what) + ": rank out of range",
                           FaultClass::fatal);
    }
    return static_cast<std::size_t>(peer);
  }

  std::deque<Mailbox>& boxes_;
  int rank_;
};

// ---------------------------------------------------------- TCP loopback

/// Process-local sense-reversing barrier with abort: a failing rank wakes
/// and fails its peers instead of leaving them parked forever.
class LocalBarrier {
 public:
  explicit LocalBarrier(int n) : n_(n) {}

  void wait() {
    sync::MutexLock lock(mutex_);
    if (aborted_) {
      throw TransportError("peer rank failed during a collective");
    }
    const std::uint64_t generation = generation_;
    if (++arrived_ == n_) {
      arrived_ = 0;
      ++generation_;
      cv_.notify_all();
      return;
    }
    while (generation_ == generation && !aborted_) cv_.wait(mutex_);
    if (generation_ == generation && aborted_) {
      throw TransportError("peer rank failed during a collective");
    }
  }

  void abort() {
    {
      sync::MutexLock lock(mutex_);
      aborted_ = true;
    }
    cv_.notify_all();
  }

 private:
  sync::Mutex mutex_;
  sync::CondVar cv_;
  int n_;
  int arrived_ PIGP_GUARDED_BY(mutex_) = 0;
  std::uint64_t generation_ PIGP_GUARDED_BY(mutex_) = 0;
  bool aborted_ PIGP_GUARDED_BY(mutex_) = false;
};

/// Decorator for the loopback carrier: every collective additionally
/// passes a process-local barrier.  TCP alone orders nothing between
/// threads of one process; the barrier gives the rank threads the
/// happens-before edges the shared-memory engine needs, in a form TSan
/// can see.
class LoopbackTransport final : public Transport {
 public:
  LoopbackTransport(Transport& inner, LocalBarrier& barrier)
      : inner_(inner), barrier_(barrier) {}

  [[nodiscard]] int rank() const noexcept override { return inner_.rank(); }
  [[nodiscard]] int num_ranks() const noexcept override {
    return inner_.num_ranks();
  }
  void send(int to, Packet packet) override {
    inner_.send(to, std::move(packet));
  }
  [[nodiscard]] Packet recv(int from) override { return inner_.recv(from); }

  void barrier() override {
    inner_.barrier();
    barrier_.wait();
  }
  [[nodiscard]] double allreduce(
      double value,
      const std::function<double(double, double)>& op) override {
    const double result = inner_.allreduce(value, op);
    barrier_.wait();
    return result;
  }
  [[nodiscard]] std::vector<Packet> allgather(Packet packet) override {
    std::vector<Packet> all = inner_.allgather(std::move(packet));
    barrier_.wait();
    return all;
  }
  [[nodiscard]] Packet broadcast(int root, Packet packet) override {
    Packet result = inner_.broadcast(root, std::move(packet));
    barrier_.wait();
    return result;
  }

 private:
  Transport& inner_;
  LocalBarrier& barrier_;
};

// -------------------------------------------------------------- carriers

/// What a group's ranks talk over.  Each rank's transport is built on
/// first use, on that rank's own thread (the TCP mesh handshake blocks
/// until every rank builds), and is kept until the carrier is destroyed.
class Carrier {
 public:
  virtual ~Carrier() = default;

  /// Rank \p rank's transport, built on the first call.
  [[nodiscard]] virtual Transport& transport(int rank) = 0;

  /// Rank \p rank failed: wake every peer blocked in the carrier.  Runs
  /// on the failing rank's thread, after it took its arrival ticket.
  virtual void release_peers(int rank) noexcept = 0;

  /// True when the run that just finished left nothing unread on any
  /// channel.  Called while every rank is parked.
  [[nodiscard]] virtual bool drained() = 0;
};

class MailboxCarrier final : public Carrier {
 public:
  explicit MailboxCarrier(int num_ranks) {
    for (int r = 0; r < num_ranks; ++r) boxes_.emplace_back(num_ranks);
    for (int r = 0; r < num_ranks; ++r) transports_.emplace_back(boxes_, r);
  }

  Transport& transport(int rank) override {
    return transports_[static_cast<std::size_t>(rank)];
  }

  void release_peers(int /*rank*/) noexcept override {
    for (Mailbox& box : boxes_) {
      {
        sync::MutexLock lock(box.mutex);
        box.aborted = true;
      }
      box.cv.notify_all();
    }
  }

  bool drained() override {
    for (Mailbox& box : boxes_) {
      sync::MutexLock lock(box.mutex);
      for (const std::deque<Packet>& queue : box.queues) {
        if (!queue.empty()) return false;
      }
    }
    return true;
  }

 private:
  // Deques: a Mailbox is not movable, and each transport refers to boxes_.
  std::deque<Mailbox> boxes_;
  std::deque<MailboxTransport> transports_;
};

class TcpCarrier final : public Carrier {
 public:
  TcpCarrier(int num_ranks, const TcpOptions& options)
      : group_(make_local_tcp_group(num_ranks)),
        options_(options),
        barrier_(num_ranks),
        ranks_(static_cast<std::size_t>(num_ranks)) {}

  ~TcpCarrier() override {
    // Listeners of ranks that never built their transport (a thread
    // failed to start) were never adopted.
    for (const int fd : group_.listen_fds) {
      if (fd >= 0) ::close(fd);
    }
  }

  TcpCarrier(const TcpCarrier&) = delete;
  TcpCarrier& operator=(const TcpCarrier&) = delete;

  Transport& transport(int rank) override {
    const auto r = static_cast<std::size_t>(rank);
    Rank& mine = ranks_[r];
    if (mine.loopback == nullptr) {
      // The transport adopts the listener, and closes it if it throws.
      const int listen_fd = std::exchange(group_.listen_fds[r], -1);
      mine.tcp = std::make_unique<TcpTransport>(rank, group_.endpoints,
                                                listen_fd, options_);
      mine.loopback = std::make_unique<LoopbackTransport>(*mine.tcp, barrier_);
    }
    return *mine.loopback;
  }

  void release_peers(int rank) noexcept override {
    barrier_.abort();
    // Closing this rank's sockets releases peers blocked in TCP recv on it.
    const std::unique_ptr<TcpTransport>& tcp =
        ranks_[static_cast<std::size_t>(rank)].tcp;
    if (tcp != nullptr) tcp->close();
  }

  bool drained() override {
    for (const Rank& rank : ranks_) {
      if (rank.tcp != nullptr && !rank.tcp->quiescent()) return false;
    }
    return true;
  }

 private:
  struct Rank {
    std::unique_ptr<TcpTransport> tcp;
    std::unique_ptr<LoopbackTransport> loopback;
  };

  LocalTcpGroup group_;
  TcpOptions options_;
  LocalBarrier barrier_;
  std::vector<Rank> ranks_;  // rank r's entry is touched by rank r only
};

}  // namespace

// ----------------------------------------------------------- RankGroup

/// A started group: the rank threads (ranks 1..n-1; the caller of run()
/// is rank 0) and the carrier they share.  Every field a rank thread
/// writes during a run is read by the caller only after that rank counted
/// itself out under mutex_.
class RankGroup::Live {
 public:
  using Body = std::function<void(Transport&)>;

  Live(std::unique_ptr<Carrier> carrier, int num_ranks)
      : carrier_(std::move(carrier)),
        num_ranks_(num_ranks),
        errors_(static_cast<std::size_t>(num_ranks)),
        arrival_(static_cast<std::size_t>(num_ranks), -1) {}

  ~Live() { stop(); }

  Live(const Live&) = delete;
  Live& operator=(const Live&) = delete;

  /// Start ranks 1..n-1, parked until the first run.  A thread that
  /// cannot start stops and joins the ones already started (parked, so
  /// promptly) and throws a TransportError.
  void start() {
    threads_.reserve(static_cast<std::size_t>(num_ranks_ - 1));
    try {
      for (int r = 1; r < num_ranks_; ++r) {
        threads_.emplace_back([this, r]() { serve(r); });
      }
    } catch (const std::system_error& e) {
      stop();
      throw TransportError(std::string("cannot start a rank thread: ") +
                           e.what());
    }
  }

  /// Run \p body on every rank — rank 0 on the calling thread — and
  /// return the earliest failure by arrival, or null.
  // pigp:steady-state
  std::exception_ptr run(const Body& body) {
    {
      sync::MutexLock lock(mutex_);
      body_ = &body;
      running_ = num_ranks_ - 1;
      ++generation_;
    }
    wake_.notify_all();
    run_rank(0, body);
    {
      sync::MutexLock lock(mutex_);
      while (running_ > 0) done_.wait(mutex_);
      body_ = nullptr;
    }
    std::exception_ptr first;
    int first_ticket = 0;
    for (std::size_t r = 0; r < errors_.size(); ++r) {
      if (errors_[r] && (!first || arrival_[r] < first_ticket)) {
        first = errors_[r];
        first_ticket = arrival_[r];
      }
    }
    return first;
  }

  [[nodiscard]] bool drained() { return carrier_->drained(); }

 private:
  /// A rank thread: park until a new run or stop, run the body, count out.
  // pigp:steady-state
  void serve(int rank) {
    std::uint64_t seen = 0;
    for (;;) {
      const Body* body = nullptr;
      {
        sync::MutexLock lock(mutex_);
        while (generation_ == seen && !stopping_) wake_.wait(mutex_);
        if (stopping_) return;
        seen = generation_;
        body = body_;
      }
      run_rank(rank, *body);
      bool last = false;
      {
        sync::MutexLock lock(mutex_);
        last = --running_ == 0;
      }
      if (last) done_.notify_one();
    }
  }

  /// A rank whose body (or transport build) throws takes its arrival
  /// ticket first and only then releases its peers — so a TCP peer that
  /// fails on this rank's closed socket always arrives later.
  void run_rank(int rank, const Body& body) noexcept {
    const auto r = static_cast<std::size_t>(rank);
    try {
      body(carrier_->transport(rank));
    } catch (...) {
      arrival_[r] = arrival_counter_.fetch_add(1);
      errors_[r] = std::current_exception();
      carrier_->release_peers(rank);
    }
  }

  void stop() noexcept {
    {
      sync::MutexLock lock(mutex_);
      stopping_ = true;
    }
    wake_.notify_all();
    for (std::thread& thread : threads_) {
      if (thread.joinable()) thread.join();
    }
  }

  std::unique_ptr<Carrier> carrier_;
  int num_ranks_;
  std::vector<std::exception_ptr> errors_;  // slot r: rank r's failure
  std::vector<int> arrival_;                // slot r: its arrival ticket
  std::atomic<int> arrival_counter_{0};
  sync::Mutex mutex_;
  sync::CondVar wake_;  // parked ranks: a new run or stop
  sync::CondVar done_;  // the caller: the last rank counted out
  const Body* body_ PIGP_GUARDED_BY(mutex_) = nullptr;
  std::uint64_t generation_ PIGP_GUARDED_BY(mutex_) = 0;
  int running_ PIGP_GUARDED_BY(mutex_) = 0;
  bool stopping_ PIGP_GUARDED_BY(mutex_) = false;
  std::vector<std::thread> threads_;
};

RankGroup::RankGroup(int num_ranks) : num_ranks_(num_ranks) {}

RankGroup::RankGroup(int num_ranks, TcpOptions options)
    : num_ranks_(num_ranks), tcp_(std::move(options)) {}

RankGroup::~RankGroup() = default;

std::unique_ptr<RankGroup::Live> RankGroup::build() const {
  if (num_ranks_ < 1) {
    throw TransportError("a rank group needs at least one rank",
                         FaultClass::fatal);
  }
  std::unique_ptr<Carrier> carrier;
  if (tcp_.has_value()) {
    carrier = std::make_unique<TcpCarrier>(num_ranks_, *tcp_);
  } else {
    carrier = std::make_unique<MailboxCarrier>(num_ranks_);
  }
  auto live = std::make_unique<Live>(std::move(carrier), num_ranks_);
  live->start();
  return live;
}

// pigp:steady-state
void RankGroup::run(const std::function<void(Transport&)>& body) {
  if (live_ == nullptr) live_ = build();
  const std::exception_ptr failure = live_->run(body);
  if (failure == nullptr && live_->drained()) return;
  live_.reset();  // joins every rank thread and closes the carrier
  if (failure != nullptr) std::rethrow_exception(failure);
  throw TransportError(
      "a rank left a packet unread at the end of a run; the group was "
      "discarded so no later run can read it",
      FaultClass::fatal);
}

void run_in_process(int num_ranks,
                    const std::function<void(Transport&)>& body) {
  RankGroup(num_ranks).run(body);
}

void run_tcp_loopback(int num_ranks, const TcpOptions& options,
                      const std::function<void(Transport&)>& body) {
  RankGroup(num_ranks, options).run(body);
}

}  // namespace pigp::net
