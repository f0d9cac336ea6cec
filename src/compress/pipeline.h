// Parallel block-compression pipeline.
//
// The paper's key integration decision (Section III-B) is that every
// channel block is *self-contained* — it carries its own codec id and
// metadata — precisely so blocks can be (de)compressed independently. This
// pipeline exploits that: the submitting thread hands each raw block to a
// common::ThreadPool worker, workers encode frames concurrently (codecs
// are stateless; per-thread match-finder scratch keeps them share-free),
// and completed frames are re-sequenced into submission order through a
// bounded reorder window before reaching the sink. On the wire the output
// is byte-identical to the serial path — receivers cannot tell the
// difference.
//
// Threading contract:
//   * submit()/flush() are called from ONE thread (the channel writer);
//   * the frame sink and the policy callbacks behind it run on that same
//     submitting thread, in submission order — so the adaptive rate meter
//     observes the AGGREGATE accepted byte rate across all workers while
//     the decision model stays app-data-rate-only, per the paper;
//   * workers only compress; they never touch the sink.
//
// Memory is bounded by the reorder window: at most 2 × workers blocks
// are in flight (raw copy + frame each), all recycled through a
// BufferPool. submit() blocks when the window is full — that backpressure
// is exactly what the application data rate measurement needs to see.
//
// worker_count <= 1 runs no threads at all, like the decode pipeline:
// submit() encodes straight from the caller's payload into one reused
// frame buffer and hands it to the sink before returning. This inline
// mode is the serial send path of every front-end, so level clamping and
// frame encoding live only here.
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <vector>

#include "common/buffer_pool.h"
#include "common/bytes.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "compress/registry.h"

namespace strato::compress {

class ParallelBlockPipeline {
 public:
  /// Receives each completed frame in submission order, on the submitting
  /// thread. `frame` is only valid during the call.
  using FrameSink = std::function<void(
      common::ByteSpan frame, std::size_t raw_size, int level)>;

  /// @param worker_count compression threads; <= 1 encodes inline on the
  ///                     submitting thread (no threads are created). The
  ///                     reorder window holds 2 × max(1, worker_count)
  ///                     blocks.
  ParallelBlockPipeline(const CodecRegistry& registry,
                        std::size_t worker_count, FrameSink sink);
  ~ParallelBlockPipeline();

  ParallelBlockPipeline(const ParallelBlockPipeline&) = delete;
  ParallelBlockPipeline& operator=(const ParallelBlockPipeline&) = delete;

  /// Encode one block at `level` (clamped to the registry ladder). With
  /// workers, copies the payload into a pooled buffer, so the caller may
  /// reuse its block buffer immediately, and blocks while the reorder
  /// window is full, delivering completed frames while it waits. Inline,
  /// delivers the frame before returning. Rethrows encode errors.
  void submit(int level, common::ByteSpan payload);

  /// Deliver every outstanding frame (blocking), in submission order.
  void flush();

  /// Encode workers actually running (0 = inline).
  [[nodiscard]] std::size_t worker_count() const {
    return workers_ == nullptr ? 0 : workers_->size();
  }
  [[nodiscard]] std::size_t depth() const { return depth_; }
  [[nodiscard]] std::uint64_t blocks_submitted() const { return next_seq_; }
  [[nodiscard]] std::uint64_t blocks_delivered() const {
    return deliver_seq_;
  }
  /// Buffer-recycling counters of the private pool.
  [[nodiscard]] common::BufferPool::Stats pool_stats() const {
    return pool_.stats();
  }

 private:
  struct Slot {
    enum class State { kFree, kPending, kReady };
    State state = State::kFree;
    common::Bytes raw;    // pooled: copy of the submitted payload
    common::Bytes frame;  // pooled: encoded frame (valid when kReady)
    std::size_t raw_size = 0;
    int level = 0;
    std::exception_ptr error;
  };

  void compress_slot(std::uint64_t seq);
  /// Deliver in-order ready frames; with `wait_for_one`, block until the
  /// head frame is ready first. Returns after delivering what it can.
  void deliver_ready(bool wait_for_one);

  const CodecRegistry& registry_;
  FrameSink sink_;
  std::size_t depth_;

  common::Mutex mu_{"ParallelBlockPipeline::mu_"};
  common::CondVar ready_cv_;
  // Not GUARDED_BY(mu_): slots are handed off by protocol — a kPending
  // slot belongs to its worker, a kReady slot to the submitting thread;
  // only the state transition itself happens under mu_.
  std::vector<Slot> slots_;        // ring indexed by seq % depth_
  std::uint64_t next_seq_ = 0;     // next sequence number to submit
  std::uint64_t deliver_seq_ = 0;  // next sequence number to deliver

  common::BufferPool pool_;
  common::Bytes inline_frame_;  // the reused frame buffer when inline
  std::unique_ptr<common::ThreadPool> workers_;  // last: joins before state
};

}  // namespace strato::compress
