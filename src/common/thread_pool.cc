#include "common/thread_pool.h"

#include <stdexcept>
#include <utility>

namespace strato::common {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) threads = 1;
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() { shutdown(); }

void ThreadPool::post(std::function<void()> job) {
  {
    MutexLock lk(mu_);
    if (stop_) throw std::runtime_error("thread pool: post after shutdown");
    jobs_.push_back(std::move(job));
  }
  cv_.notify_one();
}

void ThreadPool::shutdown() {
  {
    MutexLock lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  // Workers drain the remaining queue before exiting (see worker_loop), so
  // joining here guarantees every accepted job has run.
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> job;
    {
      MutexLock lk(mu_);
      while (!stop_ && jobs_.empty()) cv_.wait(mu_);
      if (jobs_.empty()) return;  // stopped, and the queue is drained
      job = std::move(jobs_.front());
      jobs_.pop_front();
    }
    job();
  }
}

}  // namespace strato::common
