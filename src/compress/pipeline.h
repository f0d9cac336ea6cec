// Parallel block-compression pipeline.
//
// The paper's key integration decision (Section III-B) is that every
// channel block is *self-contained* — it carries its own codec id and
// metadata — precisely so blocks can be (de)compressed independently. This
// pipeline exploits that: the submitting thread hands each raw block to a
// worker, workers encode frames concurrently (codecs are stateless;
// per-thread match-finder scratch keeps them share-free), and completed
// frames are re-sequenced into submission order through
// detail::ReorderWindow, the bounded reorder window the decode pipeline
// shares, before reaching the sink. On the wire the output is
// byte-identical to the serial path — receivers cannot tell the
// difference.
//
// Threading contract:
//   * submit()/flush() are called from ONE thread (the channel writer);
//   * the frame sink and the policy callbacks behind it run on that same
//     submitting thread, in submission order — so the decision window
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
// frame buffer and hands it to the sink before returning; nothing is
// left to re-sequence, so the window stays empty. This inline mode is
// the serial send path of every front-end, so level clamping and frame
// encoding live only here.
#pragma once

#include <cstdint>
#include <functional>

#include "common/buffer_pool.h"
#include "common/bytes.h"
#include "compress/registry.h"
#include "compress/reorder_window.h"

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
    return window_.worker_count();
  }
  [[nodiscard]] std::size_t depth() const { return window_.depth(); }
  [[nodiscard]] std::uint64_t blocks_submitted() const {
    return window_.started() + inline_blocks_;
  }
  [[nodiscard]] std::uint64_t blocks_delivered() const {
    return window_.delivered() + inline_blocks_;
  }
  /// Buffer-recycling counters of the private pool.
  [[nodiscard]] common::BufferPool::Stats pool_stats() const {
    return pool_.stats();
  }

 private:
  struct Slot {
    common::Bytes raw;    // pooled: copy of the submitted payload
    common::Bytes frame;  // pooled: encoded frame
    std::size_t raw_size = 0;
    int level = 0;
  };

  /// Encode at a clamped level: the inline path and the window's job.
  void encode(int level, common::ByteSpan raw, common::Bytes& frame) const;
  /// Deliver in-order finished frames; with `wait_for_one`, block until
  /// the head frame is finished first. Returns after delivering what it
  /// can.
  void deliver_ready(bool wait_for_one);

  const CodecRegistry& registry_;
  FrameSink sink_;
  common::Bytes inline_frame_;       // inline mode's one reused frame
  std::uint64_t inline_blocks_ = 0;  // blocks encoded inline
  common::BufferPool pool_;
  detail::ReorderWindow<Slot> window_;  // last: joins before the pool dies
};

}  // namespace strato::compress
