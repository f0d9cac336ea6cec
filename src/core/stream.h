// Compressing / decompressing byte streams.
//
// The adaptive compression module "is placed between the application and
// the respective I/O layer" (Section III-A): the application writes raw
// bytes, the module buffers them into blocks of at most 128 KB, compresses
// each block at the policy's current level and forwards the framed block
// to the sink. Decompression is transparent on the receiving side.
//
// These classes run in real time over any ByteSink (throttled pipe, TCP
// socket wrapper, file). The discrete-event simulator models the same
// pipeline analytically but drives the identical policy objects.
#pragma once

#include <cstdint>

#include "common/bytes.h"
#include "common/sim_time.h"
#include "compress/decode_pipeline.h"
#include "compress/framing.h"
#include "compress/pipeline.h"
#include "compress/registry.h"
#include "core/policy.h"
#include "metrics/registry.h"

namespace strato::core {

/// Destination for framed bytes (pipe, socket, file, ...). write() may
/// block — that backpressure is precisely what the application data rate
/// measures.
class ByteSink {
 public:
  virtual ~ByteSink() = default;
  virtual void write(common::ByteSpan data) = 0;
  virtual void flush() {}
};

/// Application-facing compressing writer.
///
/// Blocks are encoded by a ParallelBlockPipeline at every worker count
/// (1 worker = inline encode on the writing thread). With worker_count > 1
/// they are compressed concurrently and re-sequenced before the sink; the
/// wire bytes are identical to the inline path and the policy still
/// observes the aggregate application data rate on the writing thread.
class CompressingWriter {
 public:
  /// @param sink           downstream I/O layer
  /// @param registry       ordered compression levels
  /// @param policy         level selection strategy (static / adaptive / ...)
  /// @param clock          time source for the policy (wall or simulated)
  /// @param block_size     channel block size (paper: 128 KB)
  /// @param worker_count   compression threads; <= 1 = inline on the caller
  /// @param pipeline_depth reorder-window depth; 0 = 2 * worker_count
  CompressingWriter(ByteSink& sink, const compress::CodecRegistry& registry,
                    CompressionPolicy& policy, const common::Clock& clock,
                    std::size_t block_size = compress::kDefaultBlockSize,
                    std::size_t worker_count = 1,
                    std::size_t pipeline_depth = 0);

  /// Accept application data; emits framed blocks as they fill.
  void write(common::ByteSpan data);

  /// Emit any buffered partial block and flush the sink.
  void flush();

  // The counters below are relaxed atomics in a private MetricRegistry,
  // safe to poll mid-run (Channel::stats()); all else is writer-thread-only.

  /// Raw application bytes accepted so far.
  [[nodiscard]] std::uint64_t raw_bytes() const {
    return counters_.raw_bytes();
  }
  /// Framed (compressed + header) bytes emitted so far.
  [[nodiscard]] std::uint64_t framed_bytes() const {
    return counters_.framed_bytes();
  }
  /// Blocks emitted per level (index = level).
  [[nodiscard]] std::vector<std::uint64_t> blocks_per_level() const {
    return counters_.blocks_per_level();
  }

 private:
  void emit_block();
  void account_frame(common::ByteSpan frame, std::size_t raw_size, int level);

  ByteSink& sink_;
  CompressionPolicy& policy_;
  const common::Clock& clock_;
  std::size_t block_size_;
  common::Bytes buffer_;
  std::size_t buffered_ = 0;
  metrics::MetricRegistry metrics_;
  metrics::BlockCounters counters_;           // tx.* in metrics_
  compress::ParallelBlockPipeline pipeline_;  // last: joins before state
};

/// Receive-side parallelism knobs (the decode mirror of worker_count /
/// pipeline_depth on the compressing side).
struct DecompressionSpec {
  /// Decode worker threads; <= 1 decodes inline on the reading thread
  /// (no threads are created).
  std::size_t worker_count = 1;
  /// Reorder-window depth (max blocks decoding at once); 0 = 2 * workers.
  std::size_t pipeline_depth = 0;
};

/// Receiving side: feed framed bytes, pop decompressed blocks.
///
/// Runs on a ParallelBlockDecodePipeline at every worker count (1 worker =
/// inline decode through the same machinery): frames are parsed zero-copy
/// out of pooled receive segments and, with worker_count > 1, decoded
/// out of order while delivery stays strictly in wire order. The
/// delivered bytes — and any error, at its exact block position — are
/// identical to the serial path.
class DecompressingReader {
 public:
  explicit DecompressingReader(const compress::CodecRegistry& registry,
                               DecompressionSpec spec = {})
      : counters_(metrics_, metrics::BlockCounters::kRx,
                  registry.level_count()),
        pipeline_(registry, make_config(spec)) {}

  /// Append bytes received from the I/O layer. Never blocks on workers.
  void feed(common::ByteSpan data) { pipeline_.feed(data); }

  /// Next decoded block as a lease into the pipeline's pooled output
  /// buffer, or nullopt if more input is needed. The view is valid until
  /// the next next_block_view() call.
  [[nodiscard]] std::optional<compress::DecodedBlock> next_block_view() {
    auto block = pipeline_.next_block();
    if (block) {
      counters_.record(block->data.size(),
                       compress::kFrameHeaderSize + block->header.comp_size,
                       block->header.level);
    }
    return block;
  }

  /// Raw bytes decoded so far.
  [[nodiscard]] std::uint64_t raw_bytes() const {
    return counters_.raw_bytes();
  }
  /// Blocks received per ladder rung (index = level).
  [[nodiscard]] std::vector<std::uint64_t> blocks_per_level() const {
    return counters_.blocks_per_level();
  }
  /// Decode workers actually running (0 = inline).
  [[nodiscard]] std::size_t worker_count() const {
    return pipeline_.worker_count();
  }
  /// Pipeline internals for tests and benches.
  [[nodiscard]] const compress::ParallelBlockDecodePipeline& pipeline() const {
    return pipeline_;
  }

 private:
  static compress::DecodePipelineConfig make_config(DecompressionSpec spec) {
    compress::DecodePipelineConfig cfg;
    cfg.worker_count = spec.worker_count;
    cfg.depth = spec.pipeline_depth;
    return cfg;
  }

  metrics::MetricRegistry metrics_;
  metrics::BlockCounters counters_;  // rx.* in metrics_
  compress::ParallelBlockDecodePipeline pipeline_;
};

}  // namespace strato::core
