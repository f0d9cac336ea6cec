// Bounded reorder window: the one mechanism that re-sequences blocks.
//
// Every framed block is self-contained (Section III-B), so both block
// pipelines run blocks out of order on worker threads and deliver them in
// order. This window is what they share: a ring of
// depth = 2 × max(1, workers) cells indexed by seq % depth, each walking
// kFree → kPending → kReady. The owner thread (the submitting or feeding
// thread) fills next_slot(), start()s the window's one job, bound at
// construction, on it and later takes the head cell back with
// head_ready()/head()/pop(), strictly in start order. With workers > 1
// start() posts [this, &cell] to a private common::ThreadPool, a closure
// std::function stores without allocating; otherwise it runs the job on
// the owner thread, through the same states, so the decode pipeline's
// inline and threaded paths are one code path (inline encode has nothing
// to re-sequence and bypasses the window).
//
// Ownership is partitioned by state, not locked: a kPending cell's slot
// belongs to its job, a kReady or kFree one to the owner. mu_ guards only
// the state transition and the error it publishes, so jobs touch no lock
// on the byte path (DESIGN.md sections 6, 8 and 9). A job's exception is
// held in its cell until that cell reaches the head; each pipeline
// decides whether to pop before rethrowing it.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/thread_pool.h"

namespace strato::compress::detail {

template <typename Slot>
class ReorderWindow {
 public:
  /// The depth a window over `workers` workers has.
  static constexpr std::size_t depth_for(std::size_t workers) {
    return 2 * std::max<std::size_t>(1, workers);
  }

  using Job = std::function<void(Slot&)>;

  ReorderWindow(std::size_t workers, Job job)
      : job_(std::move(job)),
        cells_(depth_for(workers)),
        pool_(workers > 1 ? std::make_unique<common::ThreadPool>(workers)
                          : nullptr) {}

  ReorderWindow(const ReorderWindow&) = delete;
  ReorderWindow& operator=(const ReorderWindow&) = delete;

  /// Worker threads running jobs (0 = inline on the owner thread).
  [[nodiscard]] std::size_t worker_count() const {
    return pool_ == nullptr ? 0 : pool_->size();
  }
  [[nodiscard]] std::size_t depth() const { return cells_.size(); }
  /// Jobs started / cells popped so far.
  [[nodiscard]] std::uint64_t started() const { return next_seq_; }
  [[nodiscard]] std::uint64_t delivered() const { return head_seq_; }
  [[nodiscard]] bool full() const { return next_seq_ - head_seq_ >= depth(); }
  [[nodiscard]] bool empty() const { return next_seq_ == head_seq_; }

  /// The slot the next start() hands to its job; the owner fills its
  /// inputs first. Requires !full().
  [[nodiscard]] Slot& next_slot() { return cell(next_seq_).slot; }

  /// Run the job on next_slot(), on a worker or on this thread when
  /// inline. Requires !full().
  void start() {
    Cell& c = cell(next_seq_++);
    c.state = State::kPending;  // no job can see the cell yet
    if (pool_ == nullptr) {
      run(c);
    } else {
      pool_->post([this, &c] { run(c); });
    }
  }

  /// Whether the head job has finished; with `wait`, blocks until it has.
  /// Requires !empty().
  bool head_ready(bool wait) {
    const Cell& c = cell(head_seq_);
    common::MutexLock lk(mu_);
    while (c.state != State::kReady) {
      if (!wait) return false;
      ready_cv_.wait(mu_);
    }
    return true;
  }

  /// The finished head slot and its job's exception (null on success).
  /// Require head_ready().
  [[nodiscard]] Slot& head() { return cell(head_seq_).slot; }
  [[nodiscard]] std::exception_ptr head_error() const {
    return cells_[head_seq_ % depth()].error;
  }

  /// Free the head cell. Its slot keeps its contents, and stays the
  /// owner's until a later start() reuses the cell.
  void pop() {
    Cell& c = cell(head_seq_++);
    c.error = nullptr;
    c.state = State::kFree;
  }

 private:
  enum class State { kFree, kPending, kReady };
  struct Cell {
    State state = State::kFree;  // transitions to kReady under mu_
    Slot slot;
    std::exception_ptr error;    // published with kReady
  };

  Cell& cell(std::uint64_t seq) { return cells_[seq % cells_.size()]; }

  void run(Cell& c) {
    std::exception_ptr error;
    try {
      job_(c.slot);
    } catch (...) {
      error = std::current_exception();
    }
    {
      common::MutexLock lk(mu_);
      c.error = error;
      c.state = State::kReady;
    }
    ready_cv_.notify_one();  // only the owner ever waits
  }

  const Job job_;  // called concurrently from every worker
  common::Mutex mu_{"ReorderWindow::mu_"};
  common::CondVar ready_cv_;
  // Not GUARDED_BY(mu_): a cell is handed off by protocol (see the file
  // comment); only its state transition to kReady happens under mu_.
  std::vector<Cell> cells_;
  std::uint64_t next_seq_ = 0;  // next sequence number to start
  std::uint64_t head_seq_ = 0;  // next sequence number to pop
  // Last: destroyed first, so every accepted job finishes before the
  // cells it touches go away.
  std::unique_ptr<common::ThreadPool> pool_;
};

}  // namespace strato::compress::detail
