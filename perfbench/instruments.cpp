// Instruments the benchmark wraps around the library's public extension
// points: a timing Backend decorator, a counting Transport/SpmdExecutor
// decorator, percentiles and the peak-RSS probe.

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <fstream>
#include <malloc.h>
#include <sstream>

#include "api/backend.hpp"
#include "bench.hpp"

namespace perfbench {

namespace graph = pigp::graph;

BackendLog& backend_log() {
  static BackendLog log;
  return log;
}

namespace {

class TimedBackend final : public pigp::Backend {
 public:
  TimedBackend(std::unique_ptr<pigp::Backend> inner, BackendLog& log)
      : inner_(std::move(inner)), log_(log) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return inner_->name();
  }
  void trim_memory() override { inner_->trim_memory(); }

  [[nodiscard]] pigp::BackendResult repartition(
      const graph::Graph& g_new, const graph::Partitioning& old_partitioning,
      graph::VertexId n_old) override {
    const Clock::time_point start = Clock::now();
    pigp::BackendResult out =
        inner_->repartition(g_new, old_partitioning, n_old);
    record(seconds_since(start), 0);
    return out;
  }

  [[nodiscard]] pigp::BackendResult repartition(
      const graph::Graph& g_new, graph::Partitioning& partitioning,
      graph::VertexId n_old, graph::PartitionState& state,
      pigp::core::Workspace& ws) override {
    before_ = partitioning.part;
    const Clock::time_point start = Clock::now();
    pigp::BackendResult out =
        inner_->repartition(g_new, partitioning, n_old, state, ws);
    const double seconds = seconds_since(start);
    // Surviving old vertices whose part changed; dead ids stay unassigned.
    std::int64_t moved = 0;
    const std::size_t n = std::min(before_.size(), partitioning.part.size());
    for (std::size_t v = 0; v < n; ++v) {
      if (before_[v] != graph::kUnassigned &&
          before_[v] != partitioning.part[v]) {
        ++moved;
      }
    }
    record(seconds, moved);
    return out;
  }

 private:
  void record(double seconds, std::int64_t moved) {
    std::lock_guard<std::mutex> lock(log_.mutex);
    log_.call_ms.push_back(seconds * 1e3);
    log_.migrated += moved;
  }

  std::unique_ptr<pigp::Backend> inner_;
  BackendLog& log_;
  std::vector<graph::PartId> before_;
};

}  // namespace

void register_timed_backend() {
  pigp::BackendRegistry& registry = pigp::BackendRegistry::global();
  if (registry.contains("timed:igpr")) return;
  registry.add("timed:igpr", [](const pigp::ResolvedConfig& config) {
    return std::make_unique<TimedBackend>(
        pigp::BackendRegistry::global().create("igpr", config), backend_log());
  });
}

// ---------------------------------------------------------------------------

namespace {

/// Process-local barrier every counted collective passes after its wire
/// exchange, as the loopback executor's own collectives do: TCP alone
/// orders nothing between threads of one process, and the SPMD body relies
/// on the collectives for that order.  abort() releases the waiters when a
/// rank fails.
class RankBarrier {
 public:
  explicit RankBarrier(int n) : n_(n) {}

  void wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    if (aborted_) throw pigp::net::TransportError("peer rank failed");
    const std::uint64_t generation = generation_;
    if (++arrived_ == n_) {
      arrived_ = 0;
      ++generation_;
      cv_.notify_all();
      return;
    }
    cv_.wait(lock, [&] { return generation_ != generation || aborted_; });
    if (generation_ == generation) {
      throw pigp::net::TransportError("peer rank failed");
    }
  }

  void abort() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      aborted_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  int n_;
  int arrived_ = 0;
  std::uint64_t generation_ = 0;
  bool aborted_ = false;
};

/// Counts what one rank puts on and takes off the wire.  The collectives
/// run the reference implementations of net::Transport on top of the
/// counted send/recv — the same algorithms the TCP transport uses — so
/// their traffic is counted message by message; each then passes the
/// process-local barrier.
class CountingTransport final : public pigp::net::Transport {
 public:
  CountingTransport(pigp::net::Transport& inner, RankTraffic& traffic,
                    RankBarrier& barrier)
      : inner_(inner), traffic_(traffic), barrier_(barrier) {}

  [[nodiscard]] int rank() const noexcept override { return inner_.rank(); }
  [[nodiscard]] int num_ranks() const noexcept override {
    return inner_.num_ranks();
  }

  void send(int to, pigp::net::Packet packet) override {
    traffic_.bytes_sent += static_cast<std::int64_t>(packet.size_bytes());
    traffic_.messages_sent += 1;
    inner_.send(to, std::move(packet));
  }
  [[nodiscard]] pigp::net::Packet recv(int from) override {
    const Clock::time_point start = Clock::now();
    pigp::net::Packet packet = inner_.recv(from);
    traffic_.wait_s += seconds_since(start);
    traffic_.bytes_received += static_cast<std::int64_t>(packet.size_bytes());
    traffic_.messages_received += 1;
    return packet;
  }

  void barrier() override {
    traffic_.collectives += 1;
    Transport::barrier();
    sync_ranks();
  }
  [[nodiscard]] double allreduce(
      double value,
      const std::function<double(double, double)>& op) override {
    traffic_.collectives += 1;
    const double result = Transport::allreduce(value, op);
    sync_ranks();
    return result;
  }
  [[nodiscard]] std::vector<pigp::net::Packet> allgather(
      pigp::net::Packet packet) override {
    traffic_.collectives += 1;
    std::vector<pigp::net::Packet> all = Transport::allgather(std::move(packet));
    sync_ranks();
    return all;
  }
  [[nodiscard]] pigp::net::Packet broadcast(
      int root, pigp::net::Packet packet) override {
    traffic_.collectives += 1;
    pigp::net::Packet result = Transport::broadcast(root, std::move(packet));
    sync_ranks();
    return result;
  }

 private:
  void sync_ranks() {
    const Clock::time_point start = Clock::now();
    barrier_.wait();
    traffic_.wait_s += seconds_since(start);
  }

  pigp::net::Transport& inner_;
  RankTraffic& traffic_;
  RankBarrier& barrier_;
};

}  // namespace

CountingExecutor::CountingExecutor(pigp::core::SpmdExecutor& inner)
    : inner_(inner) {}

int CountingExecutor::num_ranks() const noexcept { return inner_.num_ranks(); }

void CountingExecutor::run(
    const std::function<void(pigp::net::Transport&)>& body) {
  // Each rank writes only its own slot, so the ranks never share a counter.
  traffic_.assign(static_cast<std::size_t>(inner_.num_ranks()), RankTraffic{});
  RankBarrier barrier(inner_.num_ranks());
  inner_.run([this, &body, &barrier](pigp::net::Transport& transport) {
    RankTraffic& mine = traffic_.at(static_cast<std::size_t>(transport.rank()));
    CountingTransport counted(transport, mine, barrier);
    const Clock::time_point start = Clock::now();
    try {
      body(counted);
    } catch (...) {
      barrier.abort();
      throw;
    }
    mine.busy_s = seconds_since(start) - mine.wait_s;
  });
}

// ---------------------------------------------------------------------------

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

bool reset_peak_rss() {
  // Hand memory the generators freed back to the kernel first, so the
  // reset baseline is the live inputs, not allocator slack.
  (void)malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  if (!clear) return false;
  clear << "5";
  clear.flush();
  return static_cast<bool>(clear);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return -1.0;
}

}  // namespace perfbench
