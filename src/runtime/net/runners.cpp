// The two rank-thread runners, run_in_process and run_tcp_loopback, and
// the one helper they share: both start a thread per rank, hand each a
// Transport, and turn a failing rank into an aborted group and the
// earliest failure rethrown.

#include <atomic>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "runtime/net/tcp_transport.hpp"
#include "runtime/net/transport.hpp"
#include "runtime/sync.hpp"

namespace pigp::net {
namespace {

/// Run \p body on \p num_ranks threads.  \p with_transport(r, run) builds
/// rank r's transport, calls run(transport) inside its scope and tears it
/// down; \p abort wakes every rank still blocked in the carrier.  A rank
/// whose body throws takes its arrival ticket inside run — before its
/// transport is torn down, so before a TCP peer can see the socket close
/// and fail first — and then aborts the group.  After every thread is
/// joined the failure with the earliest ticket is rethrown: later ones
/// are peers observing the abort, not the root cause.
template <typename WithTransport, typename Abort>
void run_rank_threads(int num_ranks,
                      const std::function<void(Transport&)>& body,
                      const WithTransport& with_transport,
                      const Abort& abort) {
  const auto n = static_cast<std::size_t>(num_ranks);
  std::vector<std::exception_ptr> errors(n);
  std::vector<int> arrival(n, -1);
  std::atomic<int> arrival_counter{0};
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (std::size_t r = 0; r < n; ++r) {
    threads.emplace_back([&, r]() {
      const auto fail = [&]() {
        arrival[r] = arrival_counter.fetch_add(1);
        errors[r] = std::current_exception();
        abort();
      };
      try {
        with_transport(static_cast<int>(r), [&](Transport& transport) {
          try {
            body(transport);
          } catch (...) {
            fail();
          }
        });
      } catch (...) {
        fail();  // building the transport failed
      }
    });
  }
  for (std::thread& t : threads) t.join();

  std::size_t first = n;
  for (std::size_t r = 0; r < n; ++r) {
    if (errors[r] && (first == n || arrival[r] < arrival[first])) first = r;
  }
  if (first < n) std::rethrow_exception(errors[first]);
}

// ------------------------------------------------------------ in-process

/// One rank's inbox for one run: queues[from] is the FIFO of packets from
/// rank `from`.  aborted wakes the owner out of a blocked recv.
struct Mailbox {
  explicit Mailbox(int num_ranks)
      : queues(static_cast<std::size_t>(num_ranks)) {}

  sync::Mutex mutex;
  sync::CondVar cv;
  std::vector<std::deque<Packet>> queues PIGP_GUARDED_BY(mutex);
  bool aborted PIGP_GUARDED_BY(mutex) = false;
};

/// The in-process carrier: point-to-point over the run's mailboxes, the
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

/// Decorator for the loopback runner: every collective additionally
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

}  // namespace

void run_in_process(int num_ranks,
                    const std::function<void(Transport&)>& body) {
  if (num_ranks < 1) {
    throw TransportError("an in-process group needs at least one rank",
                         FaultClass::fatal);
  }
  std::deque<Mailbox> boxes;  // a deque: Mailbox is not movable
  for (int r = 0; r < num_ranks; ++r) boxes.emplace_back(num_ranks);
  run_rank_threads(
      num_ranks, body,
      [&](int rank, const auto& run) {
        MailboxTransport transport(boxes, rank);
        run(transport);
      },
      [&]() {
        for (Mailbox& box : boxes) {
          {
            sync::MutexLock lock(box.mutex);
            box.aborted = true;
          }
          box.cv.notify_all();
        }
      });
}

void run_tcp_loopback(int num_ranks, const TcpOptions& options,
                      const std::function<void(Transport&)>& body) {
  LocalTcpGroup group = make_local_tcp_group(num_ranks);
  LocalBarrier barrier(num_ranks);
  run_rank_threads(
      num_ranks, body,
      [&](int rank, const auto& run) {
        // Leaving this scope closes the rank's sockets, which releases
        // peers blocked in TCP recv; the barrier abort releases the rest.
        TcpTransport tcp(rank, group.endpoints,
                         group.listen_fds[static_cast<std::size_t>(rank)],
                         options);
        LoopbackTransport transport(tcp, barrier);
        run(transport);
      },
      [&]() { barrier.abort(); });
}

}  // namespace pigp::net
