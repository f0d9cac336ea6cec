// Cross-block (streaming) LZ: round trips, window semantics, and the
// ratio advantage over self-contained blocks.
#include <gtest/gtest.h>

#include "common/bytes.h"
#include "common/checksum.h"
#include "common/rng.h"
#include "compress/streaming.h"
#include "corpus/generator.h"

namespace strato::compress {
namespace {

TEST(StreamingLz, BlockSequenceRoundTrips) {
  StreamingLzCompressor comp;
  StreamingLzDecompressor dec;
  auto gen = corpus::make_generator(corpus::Compressibility::kModerate, 1);
  for (int b = 0; b < 50; ++b) {
    const auto raw = corpus::take(*gen, 4096);
    const auto packed = comp.compress_block(raw);
    EXPECT_EQ(dec.decompress_block(packed, raw.size()), raw) << b;
  }
}

class StreamingChunks : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StreamingChunks, RandomBlockSizesRoundTrip) {
  common::Xoshiro256 rng(GetParam());
  StreamingLzCompressor comp;
  StreamingLzDecompressor dec;
  auto gen = corpus::make_generator(
      static_cast<corpus::Compressibility>(GetParam() % 3), GetParam());
  for (int b = 0; b < 30; ++b) {
    const auto raw = corpus::take(*gen, rng.below(20000));
    const auto packed = comp.compress_block(raw);
    ASSERT_EQ(dec.decompress_block(packed, raw.size()), raw);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StreamingChunks,
                         ::testing::Range<std::uint64_t>(1, 9));

TEST(StreamingLz, BeatsIndependentBlocksOnSmallBlocks) {
  // With 4 KB blocks the cold-dictionary penalty of self-contained blocks
  // is large; the rolling window must clearly win on LZ-friendly data.
  constexpr std::size_t kBlock = 4096;
  constexpr int kBlocks = 64;
  auto gen = corpus::make_generator(corpus::Compressibility::kModerate, 3);

  StreamingLzCompressor streaming;
  std::size_t streaming_bytes = 0;
  std::size_t independent_bytes = 0;
  common::Bytes scratch(lz77_max_compressed_size(kBlock));
  for (int b = 0; b < kBlocks; ++b) {
    const auto raw = corpus::take(*gen, kBlock);
    streaming_bytes += streaming.compress_block(raw).size();
    independent_bytes += lz77_compress(raw, scratch, LzEffort::kLight);
  }
  EXPECT_LT(streaming_bytes, independent_bytes * 0.9);
}

TEST(StreamingLz, HistoryWindowIsBounded) {
  // kStreamingWindow / kBlock blocks fill the window; two more roll it.
  constexpr std::size_t kBlock = 4096;
  StreamingLzCompressor comp;
  auto gen = corpus::make_generator(corpus::Compressibility::kLow, 4);
  for (std::size_t b = 0; b < kStreamingWindow / kBlock + 2; ++b) {
    (void)comp.compress_block(corpus::take(*gen, kBlock));
    EXPECT_LE(comp.history_size(), kStreamingWindow);
  }
  EXPECT_EQ(comp.history_size(), kStreamingWindow);
}

TEST(StreamingLz, ResetDesynchronizesByDesign) {
  // The operational hazard the paper's self-contained blocks avoid: after
  // a one-sided reset the streams disagree. Decoding either fails
  // structurally or yields wrong bytes — both acceptable here, but it
  // demonstrates why order/loss tolerance needs block independence.
  auto gen = corpus::make_generator(corpus::Compressibility::kModerate, 5);
  StreamingLzCompressor comp;
  StreamingLzDecompressor dec;
  const auto b1 = corpus::take(*gen, 8000);
  const auto p1 = comp.compress_block(b1);
  EXPECT_EQ(dec.decompress_block(p1, b1.size()), b1);

  const auto b2 = corpus::take(*gen, 8000);
  const auto p2 = comp.compress_block(b2);
  dec.reset();  // receiver lost its window
  bool mismatch = false;
  try {
    mismatch = dec.decompress_block(p2, b2.size()) != b2;
  } catch (const CodecError&) {
    mismatch = true;
  }
  EXPECT_TRUE(mismatch);
}

TEST(StreamingLz, SynchronizedResetRecovers) {
  auto gen = corpus::make_generator(corpus::Compressibility::kModerate, 6);
  StreamingLzCompressor comp;
  StreamingLzDecompressor dec;
  (void)comp.compress_block(corpus::take(*gen, 5000));
  comp.reset();
  dec.reset();  // both sides resync
  const auto raw = corpus::take(*gen, 5000);
  const auto packed = comp.compress_block(raw);
  EXPECT_EQ(dec.decompress_block(packed, raw.size()), raw);
}

TEST(StreamingLz, FailedBlockLeavesWindowIntact) {
  // A block that fails to decode must leave the window as it was, so the
  // real block still decodes against the same history afterwards.
  auto gen = corpus::make_generator(corpus::Compressibility::kModerate, 8);
  StreamingLzCompressor comp;
  StreamingLzDecompressor dec;
  const auto b1 = corpus::take(*gen, 8000);
  const auto b2 = corpus::take(*gen, 8000);
  const auto p1 = comp.compress_block(b1);
  const auto p2 = comp.compress_block(b2);
  EXPECT_EQ(dec.decompress_block(p1, b1.size()), b1);
  const common::ByteSpan truncated(p2.data(), p2.size() / 2);
  EXPECT_THROW((void)dec.decompress_block(truncated, b2.size()), CodecError);
  EXPECT_EQ(dec.decompress_block(p2, b2.size()), b2);
}

TEST(StreamingLz, EmptyBlocksAreHarmless) {
  StreamingLzCompressor comp;
  StreamingLzDecompressor dec;
  const auto packed = comp.compress_block({});
  EXPECT_EQ(dec.decompress_block(packed, 0).size(), 0u);
  auto gen = corpus::make_generator(corpus::Compressibility::kHigh, 7);
  const auto raw = corpus::take(*gen, 3000);
  const auto p2 = comp.compress_block(raw);
  EXPECT_EQ(dec.decompress_block(p2, raw.size()), raw);
}

TEST(StreamingLz, ShortBlocksTrimsAndResetKeepPinnedWire) {
  // The encoder's match table follows the window across blocks. Blocks too
  // short to search, blocks of 1-3 bytes whose window positions only then
  // gain their 4th byte, a block longer than the window and a reset must
  // each leave every wire byte as it was when the table was rebuilt from
  // the whole window for every block; the digest was recorded then. It
  // covers each block's size and wire, on all three classes at seed 7.
  const std::size_t sizes[] = {0, 1, 2, 3, 20, 8192, 70000};
  StreamingLzCompressor comp;
  StreamingLzDecompressor dec;
  common::Xxh64State hash;
  for (const auto c :
       {corpus::Compressibility::kHigh, corpus::Compressibility::kModerate,
        corpus::Compressibility::kLow}) {
    auto gen = corpus::make_generator(c, 7);
    // Twice with the window carried over, then again after a reset.
    for (int pass = 0; pass < 3; ++pass) {
      if (pass == 2) {
        comp.reset();
        dec.reset();
      }
      for (const std::size_t size : sizes) {
        const auto raw = corpus::take(*gen, size);
        const auto packed = comp.compress_block(raw);
        ASSERT_EQ(dec.decompress_block(packed, raw.size()), raw)
            << corpus::to_string(c) << " pass " << pass << " size " << size;
        std::uint8_t len[8];
        common::store_le64(len, packed.size());
        hash.update(len);
        hash.update(packed);
      }
    }
  }
  EXPECT_EQ(hash.digest(), 0x79680e2a2c972791ULL);
}

}  // namespace
}  // namespace strato::compress
