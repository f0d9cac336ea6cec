// Spans recorded from outside the library.
//
// Each bench-driven thread owns a ThreadTrace. A span covers one call
// into a library layer (AsyncSender::send, ThrottledPipe::write,
// FleetEngine::run, ...) or one callback the library makes into bench
// code (the receiver's block sink, the decorating ByteSink and
// CompressionPolicy). Spans nest: a span's self time is its duration
// minus the part its child spans cover.
//
// Spans are clipped to the measured window [T0, T1] shared by every
// thread of the run. Per (span name) totals and self times are aggregated
// as spans close, so memory stays bounded; the first kKeptPerThread spans
// of each thread are also kept and written as JSONL at exit.
//
// With tracing off, span() returns an inert scope: one branch per call.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "suite.h"

namespace strato::bench_suite {

enum SpanId : std::uint8_t {
  kTxSend,       // AsyncSender::send that did not hit the high watermark
  kTxSendDrive,  // AsyncSender::send during which backpressure_events rose
  kTxPoll,       // AsyncTransport::poll on the sending loop
  kTxFinish,     // AsyncSender::finish
  kRxPoll,       // AsyncTransport::poll on the receiving loop
  kWriterWrite,  // CompressingWriter::write
  kWriterFlush,  // CompressingWriter::flush + ThrottledPipe::close
  kLinkWait,     // ThrottledPipe::write, called by CompressingWriter
  kPolicyOnBlock,   // AdaptivePolicy::on_block, called by CompressingWriter
  kReaderReadWait,  // ThrottledPipe::read on the reader thread
  kReaderDecode,    // DecompressingReader::feed + next_block_view
  kFleetConstruct,  // FleetEngine constructor
  kFleetRun,        // FleetEngine::run
  kVerify,       // bench: check delivered bytes / results
  kPace,         // bench: open-loop generator sleeping until its next tick
  kJoin,         // bench: waiting for another driven thread to end
  kSpanCount
};

class Tracer;

class ThreadTrace {
 public:
  ThreadTrace(Tracer& tracer, std::string name)
      : tracer_(tracer), name_(std::move(name)) {}
  ThreadTrace(const ThreadTrace&) = delete;
  ThreadTrace& operator=(const ThreadTrace&) = delete;

  class Scope {
   public:
    Scope(ThreadTrace* t, SpanId id) : t_(t) {
      if (t_ != nullptr) t_->begin(id);
    }
    ~Scope() {
      if (t_ != nullptr) t_->end();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Relabel the span before it closes (its children already closed).
    void rename(SpanId id) {
      if (t_ != nullptr) t_->stack_.back().id = id;
    }

   private:
    ThreadTrace* t_;
  };

  /// Open a span on this thread; it closes when the scope ends.
  [[nodiscard]] Scope span(SpanId id);

  [[nodiscard]] const std::string& name() const { return name_; }

 private:
  friend class Tracer;

  struct Open {
    SpanId id;
    std::int64_t start;
    std::int64_t child_ns;
    std::int64_t seq;
    std::int64_t parent;
  };
  struct Kept {
    SpanId id;
    std::int64_t seq;
    std::int64_t parent;
    std::int64_t start;
    std::int64_t end;
  };
  struct Agg {
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
  };

  void begin(SpanId id);
  void end();

  Tracer& tracer_;
  std::string name_;
  std::vector<Open> stack_;
  std::vector<Kept> kept_;
  std::uint64_t dropped_ = 0;
  std::int64_t next_seq_ = 0;
  std::int64_t covered_ns_ = 0;  // top-level spans, clipped to the window
  Agg agg_[kSpanCount];
};

class Tracer {
 public:
  static constexpr std::size_t kKeptPerThread = 20000;

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Register a driven thread. Call before the threads start; the
  /// reference stays valid for the tracer's lifetime.
  ThreadTrace& thread(const std::string& name) {
    return threads_.emplace_back(*this, name);
  }

  /// T0: spans start counting. T1: spans stop counting.
  void open_window() { t0_.store(now_ns(), std::memory_order_release); }
  void close_window() { t1_.store(now_ns(), std::memory_order_release); }
  [[nodiscard]] std::int64_t t0() const {
    return t0_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::int64_t t1() const {
    return t1_.load(std::memory_order_acquire);
  }

  /// Sum over threads of a span's clipped duration / self time, seconds.
  [[nodiscard]] double total_s(SpanId id) const;
  [[nodiscard]] double self_s(SpanId id) const;

  /// Call after every driven thread has ended. Reports
  /// bench.<thread>.unaccounted_frac for every registered thread and
  /// bench.unaccounted_frac_max, failing the run when a thread's top-level
  /// spans cover less than 90% of the window, and writes the kept spans
  /// to `jsonl_path`, times relative to T0.
  void report(const std::string& jsonl_path, RunResult& r) const;

 private:
  [[nodiscard]] bool write_jsonl(const std::string& path) const;

  bool enabled_;
  std::deque<ThreadTrace> threads_;
  std::atomic<std::int64_t> t0_{0};
  std::atomic<std::int64_t> t1_{INT64_MAX};
};

inline ThreadTrace::Scope ThreadTrace::span(SpanId id) {
  return Scope(tracer_.enabled() ? this : nullptr, id);
}

}  // namespace strato::bench_suite
