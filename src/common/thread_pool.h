// Minimal fixed-size thread pool.
//
// The block pipelines' reorder window (compress/reorder_window.h) runs
// block jobs on one. Jobs are posted and forgotten: a caller that needs a
// result or an error publishes it itself, as the window does in its cells.
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace strato::common {

/// Fixed-size pool executing posted jobs FIFO.
///
/// Shutdown semantics (relied on by compress::detail::ReorderWindow): every
/// job accepted by post() runs to completion before shutdown() returns —
/// queued jobs are drained, never discarded — and post() after shutdown
/// throws instead of silently enqueueing work that would never run.
///
/// A job must not throw. An exception escaping a job ends the process
/// through std::terminate, as it would on a plain std::thread.
class ThreadPool {
 public:
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a job. std::function keeps a small capture (two pointers)
  /// inline, so such a job costs no allocation beyond the queue's own.
  /// @throws std::runtime_error after shutdown().
  void post(std::function<void()> job);

  /// Drain all queued jobs, then join the workers. Idempotent; invoked by
  /// the destructor. Further post() calls throw.
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
