// Rate-limited in-process byte pipe.
//
// The real-time stand-in for the paper's 1 GBit/s shared link: a blocking
// bounded byte queue whose drain rate is governed by a token bucket.
// Multiple pipes can share one LinkShare so concurrent "TCP connections"
// contend for the same bandwidth — the shared-I/O effect the paper
// studies, reproduced in-process for examples and integration tests.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>

#include "common/bytes.h"
#include "common/chaos.h"
#include "common/mutex.h"
#include "common/sim_time.h"
#include "common/thread_annotations.h"
#include "common/token_bucket.h"
#include "core/stream.h"

namespace strato::core {

/// Bandwidth shared by several pipes (one "physical NIC").
class LinkShare {
 public:
  /// @param bytes_per_second total link capacity
  explicit LinkShare(double bytes_per_second)
      : bucket_(bytes_per_second, bytes_per_second / 20.0) {}

  /// Block the calling thread until `n` bytes of link capacity have been
  /// granted. Fair in arrival order across pipes.
  void acquire(std::uint64_t n);

  /// Change the link capacity mid-run (congestion appearing/clearing).
  void set_rate(double bytes_per_second) {
    common::MutexLock lk(mu_);
    bucket_.set_rate(bytes_per_second);
  }

  [[nodiscard]] double rate() const {
    // Locked: set_rate() may run concurrently with a pipe reading the
    // capacity (previously an unguarded double read — a benign-looking
    // race -Wthread-safety rejects and TSan can miss).
    common::MutexLock lk(mu_);
    return bucket_.rate();
  }

 private:
  mutable common::Mutex mu_{"LinkShare::mu_"};
  common::TokenBucket bucket_ STRATO_GUARDED_BY(mu_);
  common::SteadyClock clock_;
};

/// Blocking byte pipe throttled through a LinkShare. The writer side
/// implements ByteSink (plug a CompressingWriter on top); the reader side
/// hands out chunks as they "arrive".
class ThrottledPipe final : public ByteSink {
 public:
  /// @param link      shared bandwidth governor
  /// @param capacity  in-flight buffer bound (models the socket buffer)
  ThrottledPipe(std::shared_ptr<LinkShare> link,
                std::size_t capacity = 256 * 1024);

  /// Writer side: blocks for link capacity and buffer space.
  void write(common::ByteSpan data) override;
  void flush() override {}

  /// Install a deterministic fault script (verify harness). Events are
  /// indexed by the cumulative byte offset the writer has attempted:
  /// kStall pauses the writer, kDrop discards bytes before they enter the
  /// pipe, kCorrupt flips bits in flight. The caller's buffer is never
  /// modified. Must be set before the first write (single-writer side).
  void set_chaos(common::ChaosSchedule schedule) {
    chaos_ = common::ChaosWalker(std::move(schedule));
  }

  /// Writer signals end-of-stream.
  void close();

  /// Reader side: pop up to `max_bytes`; empty result means EOF.
  common::Bytes read(std::size_t max_bytes);

  /// Bytes moved through the pipe so far.
  [[nodiscard]] std::uint64_t transferred() const;

 private:
  /// Move bytes that survived the chaos walk through the link.
  void write_clean(common::ByteSpan data);

  std::shared_ptr<LinkShare> link_;
  common::ChaosWalker chaos_;  // writer-side fault script; stalls sleep
  mutable common::Mutex mu_{"ThrottledPipe::mu_"};
  common::CondVar readable_;
  common::CondVar writable_;
  std::deque<std::uint8_t> buf_ STRATO_GUARDED_BY(mu_);
  std::size_t capacity_;
  std::uint64_t transferred_ STRATO_GUARDED_BY(mu_) = 0;
  bool closed_ STRATO_GUARDED_BY(mu_) = false;
};

}  // namespace strato::core
