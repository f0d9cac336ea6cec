// BufferPool and ParallelBlockPipeline behaviour: buffer recycling, ordered
// reassembly under out-of-order completion, wire-identity with the serial
// path, and error propagation.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/buffer_pool.h"
#include "compress/framing.h"
#include "compress/lz77.h"
#include "compress/pipeline.h"
#include "compress/registry.h"
#include "core/stream.h"
#include "corpus/generator.h"

namespace strato::compress {
namespace {

// ---------------------------------------------------------------------------
// BufferPool
// ---------------------------------------------------------------------------

TEST(BufferPool, RecyclesReleasedBuffers) {
  common::BufferPool pool(4);
  common::Bytes a = pool.acquire(1024);
  EXPECT_GE(a.capacity(), 1024u);
  EXPECT_EQ(a.size(), 0u);
  const auto* data = a.data();
  pool.release(std::move(a));
  common::Bytes b = pool.acquire(512);  // smaller request: same buffer fits
  EXPECT_EQ(b.data(), data);
  const auto stats = pool.stats();
  EXPECT_EQ(stats.acquires, 2u);
  EXPECT_EQ(stats.reuses, 1u);
}

TEST(BufferPool, DropsWhenFull) {
  common::BufferPool pool(1);
  pool.release(common::Bytes(16));
  pool.release(common::Bytes(16));  // exceeds max_buffers: dropped
  const auto stats = pool.stats();
  EXPECT_EQ(stats.free_buffers, 1u);
  EXPECT_EQ(stats.drops, 1u);
}

TEST(BufferPool, GrowsUndersizedBuffer) {
  common::BufferPool pool(4);
  pool.release(common::Bytes(8));
  common::Bytes big = pool.acquire(4096);
  EXPECT_GE(big.capacity(), 4096u);
  EXPECT_EQ(big.size(), 0u);
}

TEST(BufferPool, PoolLeaseReturnsOnScopeExit) {
  common::BufferPool pool(4);
  {
    common::PoolLease lease(pool, 256);
    lease->push_back(7);
    EXPECT_EQ((*lease)[0], 7);
  }
  EXPECT_EQ(pool.stats().free_buffers, 1u);
  common::Bytes again = pool.acquire(128);
  EXPECT_EQ(pool.stats().reuses, 1u);
  EXPECT_EQ(again.size(), 0u);  // lease contents must not leak through
  pool.release(std::move(again));
}

TEST(BufferPool, SharedSingletonIsUsable) {
  common::Bytes buf = common::BufferPool::shared().acquire(64);
  EXPECT_GE(buf.capacity(), 64u);
  common::BufferPool::shared().release(std::move(buf));
}

// ---------------------------------------------------------------------------
// Pipeline helpers
// ---------------------------------------------------------------------------

/// Wraps FastLz but stalls on odd-first-byte payloads, forcing later even
/// blocks to finish first — out-of-order completion on demand. Keeps the
/// FastLz codec id so standard registries can decode the frames.
class DelayCodec final : public Codec {
 public:
  [[nodiscard]] std::uint8_t id() const override { return inner_.id(); }
  [[nodiscard]] std::string name() const override { return "delay+fastlz"; }
  [[nodiscard]] std::size_t max_compressed_size(std::size_t n) const override {
    return inner_.max_compressed_size(n);
  }
  std::size_t compress(common::ByteSpan src,
                       common::MutableByteSpan dst) const override {
    if (!src.empty() && (src[0] & 1) != 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    return inner_.compress(src, dst);
  }
  std::size_t decompress(common::ByteSpan src,
                         common::MutableByteSpan dst) const override {
    return inner_.decompress(src, dst);
  }

 private:
  FastLz inner_;
};

/// Always fails: exercises worker-exception propagation.
class ThrowCodec final : public Codec {
 public:
  [[nodiscard]] std::uint8_t id() const override { return kCodecFastLz; }
  [[nodiscard]] std::string name() const override { return "throw"; }
  [[nodiscard]] std::size_t max_compressed_size(std::size_t n) const override {
    return n + 16;
  }
  std::size_t compress(common::ByteSpan, common::MutableByteSpan) const override {
    throw CodecError("throw codec: compress always fails");
  }
  std::size_t decompress(common::ByteSpan, common::MutableByteSpan) const override {
    throw CodecError("throw codec: decompress always fails");
  }
};

/// Collects delivered frames (sink runs on the submitting thread).
struct CollectingSink {
  std::vector<common::Bytes> frames;
  std::vector<int> levels;
  std::vector<std::size_t> raw_sizes;

  ParallelBlockPipeline::FrameSink fn() {
    return [this](common::ByteSpan frame, std::size_t raw_size, int level) {
      frames.emplace_back(frame.begin(), frame.end());
      raw_sizes.push_back(raw_size);
      levels.push_back(level);
    };
  }
};

std::vector<common::Bytes> make_blocks(corpus::Compressibility c,
                                       std::size_t count, std::size_t size) {
  auto gen = corpus::make_generator(c, 42);
  std::vector<common::Bytes> blocks;
  blocks.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    blocks.push_back(corpus::take(*gen, size));
  }
  return blocks;
}

// ---------------------------------------------------------------------------
// ParallelBlockPipeline
// ---------------------------------------------------------------------------

TEST(ParallelBlockPipeline, MatchesSerialOutputAcrossConfigurations) {
  const CodecRegistry& registry = CodecRegistry::standard();
  const corpus::Compressibility corpora[] = {
      corpus::Compressibility::kHigh, corpus::Compressibility::kModerate,
      corpus::Compressibility::kLow};
  for (const auto c : corpora) {
    const auto blocks = make_blocks(c, 8, 16 * 1024);
    for (int level = 0; level < static_cast<int>(registry.level_count());
         ++level) {
      // Serial reference frames.
      std::vector<common::Bytes> expected;
      for (const auto& b : blocks) {
        expected.push_back(encode_block(
            *registry.level(static_cast<std::size_t>(level)).codec,
            static_cast<std::uint8_t>(level), b));
      }
      for (const std::size_t workers : {std::size_t{1}, std::size_t{2},
                                        std::size_t{4}}) {
        for (const std::size_t depth : {std::size_t{0}, std::size_t{1}}) {
          CollectingSink sink;
          ParallelBlockPipeline pipeline(
              registry, PipelineConfig{workers, depth}, sink.fn());
          for (const auto& b : blocks) pipeline.submit(level, b);
          pipeline.flush();
          ASSERT_EQ(sink.frames.size(), blocks.size())
              << "workers=" << workers << " depth=" << depth;
          for (std::size_t i = 0; i < blocks.size(); ++i) {
            EXPECT_EQ(sink.frames[i], expected[i])
                << "corpus=" << corpus::to_string(c) << " level=" << level
                << " workers=" << workers << " depth=" << depth
                << " block=" << i;
            EXPECT_EQ(sink.raw_sizes[i], blocks[i].size());
            EXPECT_EQ(sink.levels[i], level);
          }
          EXPECT_EQ(pipeline.blocks_submitted(), blocks.size());
          EXPECT_EQ(pipeline.blocks_delivered(), blocks.size());
        }
      }
    }
  }
}

TEST(ParallelBlockPipeline, ReordersOutOfOrderCompletions) {
  // Level 1 uses DelayCodec: blocks whose first byte is odd stall 20 ms, so
  // with 4 workers the even blocks finish first; delivery must still be in
  // submission order and decode byte-identically.
  CodecRegistry registry;
  registry.add_level("NO", std::make_unique<NullCodec>());
  registry.add_level("DELAY", std::make_unique<DelayCodec>());

  std::vector<common::Bytes> blocks;
  for (int i = 0; i < 12; ++i) {
    common::Bytes b(2048, static_cast<std::uint8_t>(i));
    for (std::size_t j = 0; j < b.size(); j += 7) {
      b[j] = static_cast<std::uint8_t>(j ^ static_cast<std::size_t>(i));
    }
    b[0] = static_cast<std::uint8_t>(i);  // odd index => slow block
    blocks.push_back(std::move(b));
  }

  CollectingSink sink;
  ParallelBlockPipeline pipeline(
      registry, PipelineConfig{/*worker_count=*/4, /*depth=*/8}, sink.fn());
  for (const auto& b : blocks) pipeline.submit(1, b);
  pipeline.flush();

  ASSERT_EQ(sink.frames.size(), blocks.size());
  // Frames decode (with the *standard* registry — DelayCodec wrote FastLz
  // frames) to the submitted payloads, in submission order.
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    EXPECT_EQ(decode_block(sink.frames[i], CodecRegistry::standard()),
              blocks[i])
        << "block " << i;
  }
}

TEST(ParallelBlockPipeline, DepthOneSerializesButStaysCorrect) {
  // depth=1 means at most one block in flight: every submit waits for the
  // previous frame, continuously exhausting and refilling the window.
  const CodecRegistry& registry = CodecRegistry::standard();
  const auto blocks = make_blocks(corpus::Compressibility::kModerate, 6, 4096);
  CollectingSink sink;
  ParallelBlockPipeline pipeline(
      registry, PipelineConfig{/*worker_count=*/2, /*depth=*/1}, sink.fn());
  EXPECT_EQ(pipeline.depth(), 1u);
  for (const auto& b : blocks) pipeline.submit(2, b);
  pipeline.flush();
  ASSERT_EQ(sink.frames.size(), blocks.size());
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    EXPECT_EQ(decode_block(sink.frames[i], registry), blocks[i]);
  }
}

TEST(ParallelBlockPipeline, SingleWorkerPreservesOrder) {
  const CodecRegistry& registry = CodecRegistry::standard();
  const auto blocks = make_blocks(corpus::Compressibility::kHigh, 5, 8192);
  CollectingSink sink;
  ParallelBlockPipeline pipeline(registry, PipelineConfig{1, 0}, sink.fn());
  EXPECT_EQ(pipeline.worker_count(), 0u);  // inline: no ThreadPool
  EXPECT_EQ(pipeline.depth(), 2u);  // default 2 * workers
  for (const auto& b : blocks) pipeline.submit(1, b);
  pipeline.flush();
  ASSERT_EQ(sink.frames.size(), blocks.size());
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    EXPECT_EQ(decode_block(sink.frames[i], registry), blocks[i]);
  }
}

TEST(ParallelBlockPipeline, MixedLevelsDeliverInSubmissionOrder) {
  const CodecRegistry& registry = CodecRegistry::standard();
  const auto blocks = make_blocks(corpus::Compressibility::kModerate, 8, 4096);
  CollectingSink sink;
  ParallelBlockPipeline pipeline(registry, PipelineConfig{4, 0}, sink.fn());
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    pipeline.submit(static_cast<int>(i % registry.level_count()), blocks[i]);
  }
  pipeline.flush();
  ASSERT_EQ(sink.frames.size(), blocks.size());
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    EXPECT_EQ(sink.levels[i], static_cast<int>(i % registry.level_count()));
    const FrameHeader header = parse_header(sink.frames[i]);
    EXPECT_EQ(header.level, i % registry.level_count());
    EXPECT_EQ(decode_block(sink.frames[i], registry), blocks[i]);
  }
}

TEST(ParallelBlockPipeline, LevelOutOfRangeIsClamped) {
  const CodecRegistry& registry = CodecRegistry::standard();
  CollectingSink sink;
  ParallelBlockPipeline pipeline(registry, PipelineConfig{2, 0}, sink.fn());
  const common::Bytes block(1024, 0x5A);
  pipeline.submit(-3, block);
  pipeline.submit(99, block);
  pipeline.flush();
  ASSERT_EQ(sink.levels.size(), 2u);
  EXPECT_EQ(sink.levels[0], 0);
  EXPECT_EQ(sink.levels[1], static_cast<int>(registry.level_count()) - 1);
}

TEST(ParallelBlockPipeline, FlushIsIdempotentAndSafeWhenEmpty) {
  const CodecRegistry& registry = CodecRegistry::standard();
  CollectingSink sink;
  ParallelBlockPipeline pipeline(registry, PipelineConfig{2, 0}, sink.fn());
  pipeline.flush();  // nothing submitted
  EXPECT_TRUE(sink.frames.empty());
  pipeline.submit(1, common::Bytes(512, 0x11));
  pipeline.flush();
  pipeline.flush();
  EXPECT_EQ(sink.frames.size(), 1u);
}

TEST(ParallelBlockPipeline, WorkerExceptionPropagatesToSubmitter) {
  CodecRegistry registry;
  registry.add_level("NO", std::make_unique<NullCodec>());
  registry.add_level("THROW", std::make_unique<ThrowCodec>());
  const common::Bytes block(256, 0x22);
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2}}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    CollectingSink sink;
    ParallelBlockPipeline pipeline(registry, PipelineConfig{workers, 2},
                                   sink.fn());
    if (workers == 1) {
      // Inline: the encode error surfaces from submit() itself.
      EXPECT_THROW(pipeline.submit(1, block), CodecError);
    } else {
      EXPECT_THROW(
          {
            pipeline.submit(1, block);
            pipeline.flush();
          },
          CodecError);
    }
    // The pipeline stays usable for good blocks afterwards.
    pipeline.submit(0, block);
    pipeline.flush();
    ASSERT_EQ(sink.frames.size(), 1u);
    EXPECT_EQ(decode_block(sink.frames[0], registry), block);
  }
}

TEST(ParallelBlockPipeline, RecyclesBuffersAcrossBlocks) {
  const CodecRegistry& registry = CodecRegistry::standard();
  const auto blocks = make_blocks(corpus::Compressibility::kHigh, 32, 4096);
  {
    CollectingSink sink;
    ParallelBlockPipeline pipeline(registry, PipelineConfig{2, 2}, sink.fn());
    for (const auto& b : blocks) pipeline.submit(1, b);
    pipeline.flush();
    const auto stats = pipeline.pool_stats();
    // 32 blocks × (raw + frame) acquires; only the first few can miss.
    EXPECT_EQ(stats.acquires, 64u);
    EXPECT_GT(stats.reuses, 48u);
  }
  // Inline (1 worker): each payload is encoded where it lies into one
  // reused frame buffer, so the pool sees nothing per block after the
  // first.
  CollectingSink sink;
  ParallelBlockPipeline pipeline(registry, PipelineConfig{1, 2}, sink.fn());
  pipeline.submit(1, blocks[0]);
  const auto first = pipeline.pool_stats();
  for (std::size_t i = 1; i < blocks.size(); ++i) pipeline.submit(1, blocks[i]);
  pipeline.flush();
  const auto steady = pipeline.pool_stats();
  EXPECT_EQ(steady.acquires, first.acquires);
  EXPECT_EQ(steady.reuses, first.reuses);
  EXPECT_EQ(steady.drops, first.drops);
  EXPECT_EQ(steady.free_buffers, first.free_buffers);
  EXPECT_EQ(sink.frames.size(), blocks.size());
}

// ---------------------------------------------------------------------------
// CompressingWriter integration (worker_count knob)
// ---------------------------------------------------------------------------

/// ByteSink capturing the wire bytes.
struct CaptureSink final : core::ByteSink {
  common::Bytes bytes;
  int flushes = 0;
  void write(common::ByteSpan data) override {
    bytes.insert(bytes.end(), data.begin(), data.end());
  }
  void flush() override { ++flushes; }
};

TEST(CompressingWriterParallel, WireBytesIdenticalToSerial) {
  const CodecRegistry& registry = CodecRegistry::standard();
  common::SteadyClock clock;
  auto gen = corpus::make_generator(corpus::Compressibility::kModerate, 7);
  const common::Bytes data = corpus::take(*gen, 300 * 1024);  // partial tail

  for (int level = 1; level < static_cast<int>(registry.level_count());
       ++level) {
    CaptureSink serial_sink;
    core::StaticPolicy serial_policy(level, "L");
    core::CompressingWriter serial(serial_sink, registry, serial_policy,
                                   clock, 64 * 1024);
    serial.write(data);
    serial.flush();

    CaptureSink parallel_sink;
    core::StaticPolicy parallel_policy(level, "L");
    core::CompressingWriter parallel(parallel_sink, registry, parallel_policy,
                                     clock, 64 * 1024, /*worker_count=*/4);
    parallel.write(data);
    parallel.flush();

    EXPECT_EQ(parallel_sink.bytes, serial_sink.bytes) << "level=" << level;
    EXPECT_EQ(parallel.raw_bytes(), serial.raw_bytes());
    EXPECT_EQ(parallel.framed_bytes(), serial.framed_bytes());
    EXPECT_EQ(parallel.blocks_per_level(), serial.blocks_per_level());

    // And the wire stream decompresses back to the input.
    core::DecompressingReader reader(registry);
    reader.feed(parallel_sink.bytes);
    common::Bytes roundtrip;
    while (auto block = reader.next_block_view()) {
      roundtrip.insert(roundtrip.end(), block->data.begin(),
                       block->data.end());
    }
    EXPECT_EQ(roundtrip, data);
  }
}

TEST(CompressingWriterParallel, FlushEmitsPartialBlockThenSinkFlush) {
  const CodecRegistry& registry = CodecRegistry::standard();
  common::SteadyClock clock;
  CaptureSink sink;
  core::StaticPolicy policy(1, "LIGHT");
  core::CompressingWriter writer(sink, registry, policy, clock, 64 * 1024,
                                 /*worker_count=*/2);
  const common::Bytes small(1000, 0x33);
  writer.write(small);
  EXPECT_TRUE(sink.bytes.empty());  // buffered, not yet a full block
  writer.flush();
  EXPECT_EQ(sink.flushes, 1);
  core::DecompressingReader reader(registry);
  reader.feed(sink.bytes);
  const auto block = reader.next_block_view();
  ASSERT_TRUE(block.has_value());
  EXPECT_EQ(common::Bytes(block->data.begin(), block->data.end()), small);
}

}  // namespace
}  // namespace strato::compress
