// ParallelBlockDecodePipeline behaviour: serial-identical delivery across
// worker counts and feed chunkings, in-order delivery under out-of-order
// completion, deterministic error positions (sticky), zero-copy receive
// accounting, and the DecompressingReader wiring.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "compress/decode_pipeline.h"
#include "compress/framing.h"
#include "compress/lz77.h"
#include "compress/registry.h"
#include "core/stream.h"
#include "corpus/generator.h"

namespace strato::compress {
namespace {

std::vector<common::Bytes> make_blocks(corpus::Compressibility c,
                                       std::size_t count, std::size_t size,
                                       std::uint64_t seed = 42) {
  auto gen = corpus::make_generator(c, seed);
  std::vector<common::Bytes> blocks;
  blocks.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    blocks.push_back(corpus::take(*gen, size));
  }
  return blocks;
}

/// Serial wire: blocks framed at cycling levels, concatenated.
common::Bytes make_wire(const CodecRegistry& registry,
                        const std::vector<common::Bytes>& blocks) {
  common::Bytes wire;
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    const auto level = i % registry.level_count();
    const common::Bytes frame =
        encode_block(*registry.level(level).codec,
                     static_cast<std::uint8_t>(level), blocks[i]);
    wire.insert(wire.end(), frame.begin(), frame.end());
  }
  return wire;
}

/// Drive one pipeline over `wire` in `chunk`-sized feeds, draining after
/// every feed. Returns delivered blocks; error (if any) in *error.
std::vector<common::Bytes> run_pipeline(const CodecRegistry& registry,
                                        std::size_t workers,
                                        common::ByteSpan wire,
                                        std::size_t chunk,
                                        std::string* error = nullptr) {
  ParallelBlockDecodePipeline pipeline(registry, {.worker_count = workers});
  std::vector<common::Bytes> out;
  try {
    std::size_t off = 0;
    while (off < wire.size()) {
      const std::size_t n = std::min(chunk, wire.size() - off);
      pipeline.feed(wire.subspan(off, n));
      off += n;
      while (auto block = pipeline.next_block()) {
        out.emplace_back(block->data.begin(), block->data.end());
      }
    }
  } catch (const std::exception& e) {
    if (error != nullptr) *error = e.what();
  }
  return out;
}

// ---------------------------------------------------------------------------
// Serial identity
// ---------------------------------------------------------------------------

TEST(ParallelBlockDecodePipeline, MatchesSerialAcrossWorkersAndChunkings) {
  const CodecRegistry& registry = CodecRegistry::standard();
  const corpus::Compressibility corpora[] = {
      corpus::Compressibility::kHigh, corpus::Compressibility::kModerate,
      corpus::Compressibility::kLow};
  for (const auto c : corpora) {
    const auto blocks = make_blocks(c, 10, 16 * 1024);
    const common::Bytes wire = make_wire(registry, blocks);
    for (const std::size_t workers :
         {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
      for (const std::size_t chunk :
           {std::size_t{7}, std::size_t{4096}, wire.size()}) {
        std::string error;
        const auto got = run_pipeline(registry, workers, wire, chunk, &error);
        EXPECT_EQ(error, "") << "workers=" << workers << " chunk=" << chunk;
        ASSERT_EQ(got.size(), blocks.size())
            << "workers=" << workers << " chunk=" << chunk;
        for (std::size_t i = 0; i < blocks.size(); ++i) {
          EXPECT_EQ(got[i], blocks[i])
              << "corpus=" << corpus::to_string(c) << " workers=" << workers
              << " chunk=" << chunk << " block=" << i;
        }
      }
    }
  }
}

TEST(ParallelBlockDecodePipeline, ReportsHeadersAndCounters) {
  const CodecRegistry& registry = CodecRegistry::standard();
  const auto blocks = make_blocks(corpus::Compressibility::kModerate, 6, 8192);
  const common::Bytes wire = make_wire(registry, blocks);
  ParallelBlockDecodePipeline pipeline(registry, {.worker_count = 2});
  EXPECT_EQ(pipeline.worker_count(), 2u);
  EXPECT_EQ(pipeline.depth(), 4u);  // 2 * workers
  pipeline.feed(wire);
  std::size_t i = 0;
  while (auto block = pipeline.next_block()) {
    EXPECT_EQ(block->header.level, i % registry.level_count());
    EXPECT_EQ(pipeline.last_header().level, block->header.level);
    EXPECT_EQ(block->header.raw_size, blocks[i].size());
    ++i;
  }
  EXPECT_EQ(i, blocks.size());
  EXPECT_EQ(pipeline.blocks_parsed(), blocks.size());
  EXPECT_EQ(pipeline.blocks_delivered(), blocks.size());
  EXPECT_EQ(pipeline.pending(), 0u);
}

TEST(ParallelBlockDecodePipeline, InlineModeRunsNoThreads) {
  const CodecRegistry& registry = CodecRegistry::standard();
  ParallelBlockDecodePipeline pipeline(registry, {.worker_count = 1});
  EXPECT_EQ(pipeline.worker_count(), 0u);  // inline: no ThreadPool at all
  const auto blocks = make_blocks(corpus::Compressibility::kHigh, 3, 4096);
  pipeline.feed(make_wire(registry, blocks));
  for (const auto& expected : blocks) {
    auto block = pipeline.next_block();
    ASSERT_TRUE(block.has_value());
    EXPECT_EQ(common::Bytes(block->data.begin(), block->data.end()), expected);
  }
  EXPECT_FALSE(pipeline.next_block().has_value());
}

// ---------------------------------------------------------------------------
// Out-of-order completion
// ---------------------------------------------------------------------------

/// FastLz whose decompress stalls when the compressed payload's first byte
/// is odd: later even frames finish first, so delivery order is only
/// correct if the reorder window re-sequences.
class DelayDecodeCodec final : public Codec {
 public:
  [[nodiscard]] std::uint8_t id() const override { return inner_.id(); }
  [[nodiscard]] std::string name() const override { return "delaydec"; }
  [[nodiscard]] std::size_t max_compressed_size(std::size_t n) const override {
    return inner_.max_compressed_size(n);
  }
  std::size_t compress(common::ByteSpan src,
                       common::MutableByteSpan dst) const override {
    return inner_.compress(src, dst);
  }
  std::size_t decompress(common::ByteSpan src,
                         common::MutableByteSpan dst) const override {
    if (!src.empty() && (src[0] & 1) != 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(15));
    }
    return inner_.decompress(src, dst);
  }

 private:
  FastLz inner_;
};

TEST(ParallelBlockDecodePipeline, DeliversInOrderUnderOutOfOrderCompletion) {
  CodecRegistry registry;
  registry.add_level("NO", std::make_unique<NullCodec>());
  registry.add_level("DELAYDEC", std::make_unique<DelayDecodeCodec>());

  std::vector<common::Bytes> blocks;
  for (int i = 0; i < 10; ++i) {
    common::Bytes b(2048, static_cast<std::uint8_t>(i * 3));
    for (std::size_t j = 0; j < b.size(); j += 5) {
      b[j] = static_cast<std::uint8_t>(j + static_cast<std::size_t>(i));
    }
    blocks.push_back(std::move(b));
  }
  // Frames written with plain FastLz (same codec id); decoded with the
  // delaying registry so some workers stall.
  common::Bytes wire;
  for (const auto& b : blocks) {
    const common::Bytes frame =
        encode_block(*CodecRegistry::standard().level(1).codec, 1, b);
    wire.insert(wire.end(), frame.begin(), frame.end());
  }

  std::string error;
  const auto got = run_pipeline(registry, 4, wire, wire.size(), &error);
  EXPECT_EQ(error, "");
  ASSERT_EQ(got.size(), blocks.size());
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    EXPECT_EQ(got[i], blocks[i]) << "block " << i;
  }
}

// ---------------------------------------------------------------------------
// Error determinism
// ---------------------------------------------------------------------------

TEST(ParallelBlockDecodePipeline, ChecksumErrorSurfacesAtExactBlockSticky) {
  const CodecRegistry& registry = CodecRegistry::standard();
  const auto blocks = make_blocks(corpus::Compressibility::kModerate, 6, 4096);
  common::Bytes wire;
  std::vector<std::size_t> frame_starts;
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    frame_starts.push_back(wire.size());
    const common::Bytes frame =
        encode_block(*registry.level(1).codec, 1, blocks[i]);
    wire.insert(wire.end(), frame.begin(), frame.end());
  }
  // Corrupt the stored checksum of frame 3: frames 0..2 deliver, then the
  // mismatch must throw — at every worker count, repeatably.
  wire[frame_starts[3] + 16] ^= 0xFF;

  for (const std::size_t workers :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    ParallelBlockDecodePipeline pipeline(registry, {.worker_count = workers});
    pipeline.feed(wire);
    for (std::size_t i = 0; i < 3; ++i) {
      auto block = pipeline.next_block();
      ASSERT_TRUE(block.has_value()) << "workers=" << workers << " i=" << i;
      EXPECT_EQ(common::Bytes(block->data.begin(), block->data.end()),
                blocks[i]);
    }
    for (int attempt = 0; attempt < 3; ++attempt) {  // sticky
      try {
        (void)pipeline.next_block();
        FAIL() << "workers=" << workers << ": expected checksum error";
      } catch (const CodecError& e) {
        EXPECT_STREQ(e.what(), "frame: checksum mismatch")
            << "workers=" << workers;
      }
    }
  }
}

TEST(ParallelBlockDecodePipeline, MalformedHeaderPoisonsAfterGoodBlocks) {
  const CodecRegistry& registry = CodecRegistry::standard();
  const auto blocks = make_blocks(corpus::Compressibility::kHigh, 4, 2048);
  common::Bytes wire = make_wire(registry, blocks);
  const std::size_t good_size = wire.size();
  // Garbage where frame 4's header should be.
  for (int i = 0; i < 40; ++i) {
    wire.push_back(static_cast<std::uint8_t>(0xC3 + i));
  }
  (void)good_size;

  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    for (const std::size_t chunk : {std::size_t{13}, wire.size()}) {
      std::string error;
      const auto got = run_pipeline(registry, workers, wire, chunk, &error);
      EXPECT_EQ(got.size(), blocks.size())
          << "workers=" << workers << " chunk=" << chunk;
      EXPECT_EQ(error, "frame: bad magic")
          << "workers=" << workers << " chunk=" << chunk;
    }
  }
}

TEST(ParallelBlockDecodePipeline, TruncatedWireIsJustStarvation) {
  const CodecRegistry& registry = CodecRegistry::standard();
  const auto blocks = make_blocks(corpus::Compressibility::kModerate, 3, 4096);
  common::Bytes wire = make_wire(registry, blocks);
  wire.resize(wire.size() - 10);  // last frame incomplete

  ParallelBlockDecodePipeline pipeline(registry, {.worker_count = 2});
  pipeline.feed(wire);
  std::size_t delivered = 0;
  while (auto block = pipeline.next_block()) ++delivered;
  EXPECT_EQ(delivered, blocks.size() - 1);
  EXPECT_GT(pipeline.pending(), 0u);  // the partial frame stays buffered
}

// ---------------------------------------------------------------------------
// Zero-copy receive accounting
// ---------------------------------------------------------------------------

TEST(ParallelBlockDecodePipeline, WraparoundCopiesOnlyPartialFrameTails) {
  const CodecRegistry& registry = CodecRegistry::standard();
  const auto blocks = make_blocks(corpus::Compressibility::kLow, 24, 8 * 1024);
  const common::Bytes wire = make_wire(registry, blocks);

  // Tiny segments force frequent wraparound; feeds deliberately misalign
  // with frame boundaries.
  DecodePipelineConfig cfg;
  cfg.worker_count = 2;
  cfg.segment_size = 20 * 1024;
  ParallelBlockDecodePipeline pipeline(registry, cfg);
  std::size_t off = 0;
  std::size_t delivered = 0;
  while (off < wire.size()) {
    const std::size_t n = std::min<std::size_t>(3000, wire.size() - off);
    pipeline.feed(common::ByteSpan(wire.data() + off, n));
    off += n;
    while (auto block = pipeline.next_block()) {
      EXPECT_EQ(common::Bytes(block->data.begin(), block->data.end()),
                blocks[delivered]);
      ++delivered;
    }
  }
  EXPECT_EQ(delivered, blocks.size());
  EXPECT_GT(pipeline.segments_sealed(), 0u);
  // The zero-copy contract: only partial-frame tails ever move twice — a
  // small fraction of the wire, bounded by one frame per sealed segment.
  const std::uint64_t max_frame =
      kFrameHeaderSize + 8 * 1024;  // stored fallback bounds comp <= raw
  EXPECT_LT(pipeline.tail_bytes_copied(),
            pipeline.segments_sealed() * max_frame);
  EXPECT_LT(pipeline.tail_bytes_copied(), wire.size() / 2);
  // Segments and output buffers recycle through the private pool.
  const auto stats = pipeline.pool_stats();
  EXPECT_GT(stats.reuses, 0u);
}

TEST(ParallelBlockDecodePipeline, LeaseIsInvalidatedByNextCall) {
  const CodecRegistry& registry = CodecRegistry::standard();
  const auto blocks = make_blocks(corpus::Compressibility::kHigh, 2, 1024);
  ParallelBlockDecodePipeline pipeline(registry, {.worker_count = 1});
  pipeline.feed(make_wire(registry, blocks));
  auto first = pipeline.next_block();
  ASSERT_TRUE(first.has_value());
  const common::Bytes copy(first->data.begin(), first->data.end());
  EXPECT_EQ(copy, blocks[0]);
  auto second = pipeline.next_block();  // invalidates `first`
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(common::Bytes(second->data.begin(), second->data.end()),
            blocks[1]);
}

// ---------------------------------------------------------------------------
// DecompressingReader wiring
// ---------------------------------------------------------------------------

TEST(DecompressingReaderParallel, StatsMatchSerialReader) {
  const CodecRegistry& registry = CodecRegistry::standard();
  const auto blocks = make_blocks(corpus::Compressibility::kModerate, 8, 4096);
  const common::Bytes wire = make_wire(registry, blocks);

  core::DecompressingReader serial(registry);
  serial.feed(wire);
  common::Bytes serial_out;
  while (auto b = serial.next_block_view()) {
    serial_out.insert(serial_out.end(), b->data.begin(), b->data.end());
  }

  core::DecompressingReader parallel(registry, 4);
  EXPECT_EQ(parallel.worker_count(), 4u);
  parallel.feed(wire);
  common::Bytes parallel_out;
  while (auto view = parallel.next_block_view()) {
    parallel_out.insert(parallel_out.end(), view->data.begin(),
                        view->data.end());
  }

  EXPECT_EQ(parallel_out, serial_out);
  EXPECT_EQ(parallel.raw_bytes(), serial.raw_bytes());
  EXPECT_EQ(parallel.blocks_per_level(), serial.blocks_per_level());
}

}  // namespace
}  // namespace strato::compress
