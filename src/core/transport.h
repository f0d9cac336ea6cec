// Async socket transport over the block pipelines.
//
// The production rung past ThrottledPipe: non-blocking TCP connections
// driven by a core::EpollLoop, with the existing parallel block pipelines
// doing the codec work on either end.
//
//   * Send side (AsyncSender): blocks are encoded by a
//     compress::ParallelBlockPipeline, which encodes inline on the
//     sending thread when workers <= 1 (no threads, like decode); the
//     frame sink appends completed frames into pooled send segments and
//     the event loop flushes them with vectored writes (sendmsg(2) with
//     an iovec batch + MSG_NOSIGNAL — writev semantics, SIGPIPE-safe).
//     Backpressure:
//     when the queue exceeds `high_watermark` wire bytes — the kernel
//     socket buffer is full and EAGAIN is pushing back — send() drives
//     the loop until the queue drains below `low_watermark`, which in
//     turn stalls the application exactly like a blocking socket would.
//   * Receive side (AsyncReceiver): readable sockets recv(2) directly
//     into the decode pipeline's pooled segments (recv_span/commit — the
//     wire bytes are parsed in place, zero copies on the receive path)
//     and decoded blocks are delivered in wire order to a sink callback.
//     The decode pipeline's sticky serial-equivalent error semantics are
//     preserved: a damaged stream surfaces the same CodecError, after the
//     same number of good blocks, as the serial FrameAssembler would.
//   * Chaos: the sender walks its frames through the same
//     common::ChaosWalker as ThrottledPipe (coordinates count pre-drop
//     attempted bytes), except that kStall is a non-blocking flush
//     deadline instead of a thread sleep, so one stalled connection does
//     not freeze its loop's siblings.
//
// Threading contract: an endpoint belongs to the one thread driving its
// EpollLoop; send()/finish()/poll all run there. The pipelines' internal
// worker threads never touch sockets or the loop.
//
// Both endpoints count bytes, frames, stalls, backpressure events and
// per-level blocks into a metrics::MetricRegistry (names in DESIGN.md
// §13): the caller's, or one AsyncTransport owns when it passes none.
#pragma once

#include <cstdint>
#include <deque>
#include <exception>
#include <functional>

#include "common/buffer_pool.h"
#include "common/bytes.h"
#include "common/chaos.h"
#include "common/lifetime_annotations.h"
#include "common/sim_time.h"
#include "compress/decode_pipeline.h"
#include "compress/pipeline.h"
#include "compress/registry.h"
#include "core/epoll_loop.h"
#include "core/tcp.h"
#include "metrics/registry.h"

namespace strato::core {

/// Sending endpoint: framed, compressed blocks out of a non-blocking
/// socket. Construct with a connected TcpConnection (ownership taken; the
/// fd is switched to O_NONBLOCK and registered with the loop).
class AsyncSender {
 public:
  struct Config {
    /// Compression workers; <= 1 encodes inline on the sending thread.
    std::size_t workers = 1;
    /// Pipeline reorder-window depth; 0 = 2 * workers.
    std::size_t depth = 0;
    /// Pooled send-segment size; frames are batched into segments so one
    /// writev covers many frames.
    std::size_t segment_bytes = 256 * 1024;
    /// send() drives the loop once more than this many wire bytes queue.
    std::size_t high_watermark = 4 * 1024 * 1024;
    /// ... until the queue drains below this.
    std::size_t low_watermark = 512 * 1024;
    /// Socket-level fault script (byte-offset keyed, like ThrottledPipe).
    common::ChaosSchedule chaos;
  };

  AsyncSender(EpollLoop& loop, TcpConnection conn,
              const compress::CodecRegistry& registry, Config config,
              metrics::MetricRegistry& metrics);
  ~AsyncSender();

  AsyncSender(const AsyncSender&) = delete;
  AsyncSender& operator=(const AsyncSender&) = delete;

  /// Encode one block at `level` (clamped to the ladder) and queue its
  /// frame. May drive the event loop while over the high watermark.
  /// @throws std::runtime_error when the connection broke (sticky).
  void send(int level, common::ByteSpan payload);

  /// Flush the pipeline, drain the queue to the socket and half-close.
  /// @throws like send() — but a peer that already reset us while data
  /// was in flight surfaces here.
  void finish();

  /// Everything accepted so far has reached the kernel.
  [[nodiscard]] bool drained() const {
    return queued_bytes_ == 0 && !stalled();
  }
  /// Wire bytes accepted but not yet written to the socket.
  [[nodiscard]] std::size_t queued_bytes() const { return queued_bytes_; }
  /// Times send() had to drive the loop for queue drain.
  [[nodiscard]] std::uint64_t backpressure_events() const {
    return backpressure_events_;
  }

 private:
  struct SendSeg {
    common::Bytes data;   // pooled
    std::size_t off = 0;  // bytes already written to the socket

    /// Wire bytes not yet handed to the kernel — the iovec source. Borrows
    /// the segment's pooled storage; dead once the segment is released
    /// back to the pool after the final sendmsg covers it.
    [[nodiscard]] common::ByteSpan pending() const STRATO_LIFETIME_BOUND {
      return {data.data() + off, data.size() - off};
    }
  };

  void on_event(std::uint32_t events);
  /// Frame-sink: chaos pass + append into the tail send segment.
  void enqueue_frame(common::ByteSpan frame, std::size_t raw_size, int level);
  void append_wire_bytes(common::ByteSpan bytes);
  /// writev as much of the queue as the socket accepts (respects stalls).
  void pump();
  void update_interest();
  [[nodiscard]] bool stalled() const;
  void drive_until(std::size_t below_bytes);
  void throw_if_broken() const;
  /// Sticky failure: record the error, drop the queue, leave the loop.
  void mark_broken(std::exception_ptr error);

  EpollLoop& loop_;
  TcpConnection conn_;
  Config config_;
  common::SteadyClock clock_;

  std::deque<SendSeg> queue_;
  std::size_t queued_bytes_ = 0;
  common::BufferPool pool_;

  metrics::BlockCounters counters_;  // tx.frames, tx.blocks.level<N>, ...
  metrics::Counter& m_wire_bytes_;   // post-chaos bytes handed to the kernel
  metrics::Counter& m_sendmsg_;
  metrics::Counter& m_stalls_;
  metrics::Counter& m_backpressure_;
  metrics::Gauge& m_queued_;  // sum over senders: moved by deltas only
  // tx.backpressure sums every sender on the registry; callers that ask
  // whether one send() drove the loop need this sender's own count.
  std::uint64_t backpressure_events_ = 0;

  compress::ParallelBlockPipeline pipeline_;

  common::ChaosWalker chaos_;  // stalls extend stall_until_
  common::SimTime stall_until_{};

  bool want_write_armed_ = false;
  bool finishing_ = false;
  bool watched_ = false;   // registered with the loop
  bool shut_ = false;      // shutdown_send() already issued
  std::exception_ptr broken_;
};

/// Receiving endpoint: frames off a non-blocking socket, decoded blocks
/// to a sink, in wire order.
class AsyncReceiver {
 public:
  struct Config {
    /// Decode workers; <= 1 decodes inline on the loop thread.
    std::size_t decode_workers = 1;
    /// Decode reorder-window depth; 0 = 2 * workers.
    std::size_t depth = 0;
    /// Receive-segment size; 0 = compress::kDefaultDecodeSegmentSize.
    std::size_t segment_size = 0;
    /// Minimum contiguous recv_span requested per read.
    std::size_t read_chunk = 128 * 1024;
    /// Reads per readiness callback before yielding to siblings.
    std::size_t max_reads_per_event = 4;
    /// Stop reading for the rest of the readiness callback once this many
    /// wire bytes sit buffered but undelivered — yields the loop to
    /// sibling connections; a sustained overrun fills the kernel buffer
    /// and backpressures the sender. 0 disables the backstop.
    std::size_t max_pending_wire = 16 * 1024 * 1024;
    /// Test hook: observes every wire chunk read off the socket, in
    /// arrival order, including the ones discarded after a stream error
    /// (chaos tests fingerprint the wire with it). Reads in place — the
    /// zero-copy path is unaffected.
    std::function<void(common::ByteSpan)> wire_tap;
  };

  /// In-order decoded-block delivery, on the loop thread. The span is
  /// only valid during the call.
  using BlockSink = std::function<void(common::ByteSpan block,
                                       const compress::FrameHeader& header)>;

  AsyncReceiver(EpollLoop& loop, TcpConnection conn,
                const compress::CodecRegistry& registry, Config config,
                BlockSink sink, metrics::MetricRegistry& metrics);
  ~AsyncReceiver();

  AsyncReceiver(const AsyncReceiver&) = delete;
  AsyncReceiver& operator=(const AsyncReceiver&) = delete;

  /// Peer half-closed and every decodable block was delivered (or the
  /// stream failed — check error()).
  [[nodiscard]] bool done() const { return done_; }
  /// EOF arrived with no partial frame pending and no decode error.
  [[nodiscard]] bool clean_eof() const {
    return done_ && error_ == nullptr && pending_at_eof_ == 0;
  }
  /// Sticky stream error (CodecError from a damaged wire, socket errors
  /// like ECONNRESET); nullptr while healthy.
  [[nodiscard]] std::exception_ptr error() const { return error_; }
  /// Rethrow error() if set.
  void check() const;

  /// Backpressure: stop reading (the kernel buffer then fills and the
  /// sender blocks). Idempotent.
  void pause();
  void resume();
  [[nodiscard]] bool paused() const { return paused_; }

  /// Wire bytes buffered but not yet delivered when EOF arrived — > 0
  /// means the peer died mid-frame (or chaos ate bytes).
  [[nodiscard]] std::uint64_t pending_at_eof() const {
    return pending_at_eof_;
  }

 private:
  void on_event(std::uint32_t events);
  /// Deliver every decodable block to the sink; decode/parse errors fail
  /// the stream (sticky, serial-order — see decode_pipeline.h).
  void drain();
  void finish_stream();
  /// Record the sticky stream error. `fatal` (socket gone) finishes the
  /// stream immediately; otherwise the receiver keeps reading and
  /// DISCARDING until EOF — a decode or sink error must not wedge the
  /// peer behind a full kernel buffer. Discarded bytes land in a private
  /// scratch buffer; the pipeline is never touched again.
  void fail_stream(std::exception_ptr error, bool fatal);
  void unwatch();

  EpollLoop& loop_;
  TcpConnection conn_;
  Config config_;
  metrics::BlockCounters counters_;  // rx.blocks, rx.blocks.level<N>, ...
  metrics::Counter& m_wire_bytes_;
  metrics::Counter& m_errors_;
  metrics::Counter& m_eofs_;
  metrics::Counter& m_backpressure_;
  compress::ParallelBlockDecodePipeline pipeline_;
  BlockSink sink_;

  bool eof_ = false;
  bool done_ = false;
  bool paused_ = false;
  bool watched_ = false;
  std::exception_ptr error_;
  common::Bytes discard_scratch_;  // recv target once the stream failed
  std::uint64_t pending_at_eof_ = 0;
};

/// One loop + its endpoints: the convenience facade a soak/bench thread
/// drives. Endpoints live in deques so references stay valid as more are
/// added.
class AsyncTransport {
 public:
  explicit AsyncTransport(const compress::CodecRegistry& registry,
                          metrics::MetricRegistry* metrics = nullptr)
      : registry_(registry),
        metrics_(metrics != nullptr ? *metrics : own_metrics_) {}

  EpollLoop& loop() { return loop_; }
  [[nodiscard]] metrics::MetricRegistry& metrics() { return metrics_; }

  AsyncSender& add_sender(TcpConnection conn, AsyncSender::Config config);
  AsyncReceiver& add_receiver(TcpConnection conn, AsyncReceiver::Config config,
                              AsyncReceiver::BlockSink sink);

  std::size_t poll(int timeout_ms) { return loop_.poll(timeout_ms); }
  /// poll until every receiver is done (EOF or error).
  void run_receivers();
  [[nodiscard]] bool receivers_done() const;

  [[nodiscard]] std::size_t sender_count() const { return senders_.size(); }
  [[nodiscard]] std::size_t receiver_count() const {
    return receivers_.size();
  }
  AsyncSender& sender(std::size_t i) { return senders_.at(i); }
  AsyncReceiver& receiver(std::size_t i) { return receivers_.at(i); }

 private:
  const compress::CodecRegistry& registry_;
  metrics::MetricRegistry own_metrics_;
  metrics::MetricRegistry& metrics_;
  EpollLoop loop_;
  std::deque<AsyncSender> senders_;
  std::deque<AsyncReceiver> receivers_;
};

}  // namespace strato::core
