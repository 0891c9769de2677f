#pragma once

/// \file thread_pool.hpp
/// Long-lived worker pool with a blocking task queue.
///
/// The pool backs pigp::runtime::parallel_for.  Hot numeric loops inside
/// the library (simplex pivots, BFS frontiers) use OpenMP directly; the
/// pool exists for coarse task parallelism where the per-task work is
/// large and structured (per-partition layering).

#include <deque>
#include <functional>
#include <future>
#include <thread>
#include <vector>

#include "runtime/sync.hpp"

namespace pigp::runtime {

/// Fixed-size pool of worker threads executing queued std::function tasks.
/// Exceptions thrown by a task are captured in the future returned by
/// submit().
class ThreadPool {
 public:
  /// Spawn \p num_threads workers (>= 1).
  explicit ThreadPool(int num_threads);

  /// Drains outstanding tasks, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] int size() const noexcept {
    return static_cast<int>(workers_.size());
  }

  /// Enqueue \p fn; the future observes its result or exception.
  template <typename F>
  [[nodiscard]] std::future<std::invoke_result_t<F>> submit(F&& fn) {
    using R = std::invoke_result_t<F>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> result = task->get_future();
    {
      sync::MutexLock lock(mutex_);
      queue_.emplace_back([task]() { (*task)(); });
    }
    cv_.notify_one();
    return result;
  }

  /// Number of hardware threads, at least 1.
  [[nodiscard]] static int hardware_threads();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  sync::Mutex mutex_;
  sync::CondVar cv_;
  std::deque<std::function<void()>> queue_ PIGP_GUARDED_BY(mutex_);
  bool stopping_ PIGP_GUARDED_BY(mutex_) = false;
};

}  // namespace pigp::runtime
