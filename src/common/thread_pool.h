// Minimal fixed-size thread pool.
//
// The dataflow executor runs each task vertex on a pool thread; the block
// pipelines' reorder window (compress/reorder_window.h) runs block jobs on
// one; benches use it to run independent experiment repetitions
// concurrently.
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace strato::common {

/// Fixed-size pool executing std::function jobs FIFO.
///
/// Shutdown semantics (relied on by compress::detail::ReorderWindow): every
/// job accepted by submit() runs to completion before shutdown() returns —
/// queued jobs are drained, never discarded — and submit() after shutdown
/// throws instead of silently enqueueing work that would never run (which
/// used to surface as a broken-promise future at some later get()).
class ThreadPool {
 public:
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a job; returns a future for its completion. Exceptions thrown
  /// by the job are captured into the future; the worker survives.
  /// @throws std::runtime_error after shutdown().
  template <typename F>
  auto submit(F&& f) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    auto fut = task->get_future();
    {
      MutexLock lk(mu_);
      if (stop_) {
        throw std::runtime_error("thread pool: submit after shutdown");
      }
      jobs_.emplace_back([task] { (*task)(); });
    }
    cv_.notify_one();
    return fut;
  }

  /// Drain all queued jobs, then join the workers. Idempotent; invoked by
  /// the destructor. Further submit() calls throw.
  void shutdown();

  /// Number of worker threads.
  [[nodiscard]] std::size_t size() const { return workers_.size(); }

 private:
  void worker_loop();

  Mutex mu_{"ThreadPool::mu_"};
  CondVar cv_;
  std::deque<std::function<void()>> jobs_ STRATO_GUARDED_BY(mu_);
  std::vector<std::thread> workers_;
  bool stop_ STRATO_GUARDED_BY(mu_) = false;
};

}  // namespace strato::common
