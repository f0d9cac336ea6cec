// Corpus generators: determinism, compressibility bands (the Canterbury
// substitution contract), entropy probes, segmented switching.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>

#include "common/checksum.h"
#include "compress/registry.h"
#include "corpus/entropy.h"
#include "corpus/generator.h"

namespace strato::corpus {
namespace {

using compress::CodecRegistry;

double ratio_of(const compress::Codec& codec, Generator& gen,
                std::size_t bytes) {
  const auto data = take(gen, bytes);
  return static_cast<double>(codec.compress(data).size()) /
         static_cast<double>(data.size());
}

class AllClasses : public ::testing::TestWithParam<Compressibility> {};

TEST_P(AllClasses, DeterministicForSameSeed) {
  auto g1 = make_generator(GetParam(), 42);
  auto g2 = make_generator(GetParam(), 42);
  EXPECT_EQ(take(*g1, 100000), take(*g2, 100000));
}

TEST_P(AllClasses, DifferentSeedsDiffer) {
  auto g1 = make_generator(GetParam(), 1);
  auto g2 = make_generator(GetParam(), 2);
  EXPECT_NE(take(*g1, 100000), take(*g2, 100000));
}

TEST_P(AllClasses, ResetRestartsStream) {
  auto g = make_generator(GetParam(), 9);
  const auto first = take(*g, 50000);
  g->reset(9);
  EXPECT_EQ(take(*g, 50000), first);
}

TEST_P(AllClasses, ChunkingInvariance) {
  auto g1 = make_generator(GetParam(), 3);
  auto g2 = make_generator(GetParam(), 3);
  const auto whole = take(*g1, 60000);
  common::Bytes pieces;
  while (pieces.size() < whole.size()) {
    const std::size_t n =
        std::min<std::size_t>(1 + pieces.size() % 977,
                              whole.size() - pieces.size());
    const auto chunk = take(*g2, n);
    pieces.insert(pieces.end(), chunk.begin(), chunk.end());
  }
  EXPECT_EQ(pieces, whole);
}

INSTANTIATE_TEST_SUITE_P(Classes, AllClasses,
                         ::testing::Values(Compressibility::kHigh,
                                           Compressibility::kModerate,
                                           Compressibility::kLow));

// --- pinned streams ---------------------------------------------------------

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// The same bytes as one take, drawn in chunks of 1, 2, 5, 977 and 8,192
// bytes, cycled, so every generator's carry-over state is crossed at many
// offsets.
std::uint64_t chunked_digest(Generator& gen, std::size_t total) {
  constexpr std::size_t kChunks[] = {1, 2, 5, 977, 8192};
  common::Bytes buf(total);
  for (std::size_t off = 0, i = 0; off < total; ++i) {
    const std::size_t n = std::min(kChunks[i % 5], total - off);
    gen.generate(common::MutableByteSpan(buf).subspan(off, n));
    off += n;
  }
  return common::xxh64(buf);
}

// Every bench, test and suite workload draws its input from these three
// streams, so one moved byte moves every golden, ratio and digest
// downstream. The constants were recorded before the generators' fast
// paths existed; a faster generator must reproduce them, never re-record
// them. The 32 MiB rows at seed 424242 (the suite's default seed) are the
// digests `bench_corpus` reports and BENCH_corpus.json pins.
TEST(CorpusGolden, StreamDigests) {
  struct Pinned {
    Compressibility c;
    std::uint64_t seed;
    std::size_t bytes;
    std::uint64_t digest;
  };
  constexpr std::size_t k4M = 4 << 20;
  constexpr std::size_t k32M = 32 << 20;
  const Pinned rows[] = {
      {Compressibility::kHigh, 1, k4M, 0x702ac0a8a608a73eULL},
      {Compressibility::kHigh, 7, k4M, 0xfebc5ec2ad9640d2ULL},
      {Compressibility::kHigh, 424242, k4M, 0x6376e071913e7015ULL},
      {Compressibility::kModerate, 1, k4M, 0xab39e77fddf88faaULL},
      {Compressibility::kModerate, 7, k4M, 0x621ea19aa98970a9ULL},
      {Compressibility::kModerate, 424242, k4M, 0xd328e9fe090e7537ULL},
      {Compressibility::kLow, 1, k4M, 0xdc55485d15bbeed0ULL},
      {Compressibility::kLow, 7, k4M, 0xbe54b3d6116b6a3dULL},
      {Compressibility::kLow, 424242, k4M, 0xe13f5f965b76d4a2ULL},
      {Compressibility::kHigh, 424242, k32M, 0x82c184c0e86407a8ULL},
      {Compressibility::kModerate, 424242, k32M, 0x2ac20e59a3bb3055ULL},
      {Compressibility::kLow, 424242, k32M, 0x1b7252c92782de7aULL},
  };
  for (const Pinned& row : rows) {
    SCOPED_TRACE(std::string(to_string(row.c)) + " seed " +
                 std::to_string(row.seed) + " bytes " +
                 std::to_string(row.bytes));
    auto whole = make_generator(row.c, row.seed);
    EXPECT_EQ(hex(common::xxh64(take(*whole, row.bytes))), hex(row.digest));
    if (row.bytes != k4M) continue;
    auto chunked = make_generator(row.c, row.seed);
    EXPECT_EQ(hex(chunked_digest(*chunked, row.bytes)), hex(row.digest));
    // Mid-stream (line, sentence or marker state carried over), a reset
    // must restart the stream from its first byte.
    chunked->reset(row.seed);
    EXPECT_EQ(hex(common::xxh64(take(*chunked, row.bytes))), hex(row.digest));
  }
}

// --- the ratio-band contract (paper Section IV-A) --------------------------

TEST(RatioBands, HighCorpusMatchesPtt5Band) {
  // ptt5 compresses to 10-15 % with common libraries; we accept a band
  // around it for our LIGHT codec and require the stronger codecs to do
  // strictly better.
  const auto& reg = CodecRegistry::standard();
  auto gen = make_generator(Compressibility::kHigh, 7);
  const double light = ratio_of(*reg.level(1).codec, *gen, 2 << 20);
  gen->reset(7);
  const double medium = ratio_of(*reg.level(2).codec, *gen, 2 << 20);
  gen->reset(7);
  const double heavy = ratio_of(*reg.level(3).codec, *gen, 2 << 20);
  EXPECT_GT(light, 0.07);
  EXPECT_LT(light, 0.22);
  EXPECT_LT(medium, light);
  EXPECT_LT(heavy, medium);
  EXPECT_GT(heavy, 0.02);
}

TEST(RatioBands, ModerateCorpusMatchesAlice29Band) {
  // alice29.txt: "30-50 % depending on the algorithm used".
  const auto& reg = CodecRegistry::standard();
  auto gen = make_generator(Compressibility::kModerate, 7);
  const double light = ratio_of(*reg.level(1).codec, *gen, 2 << 20);
  gen->reset(7);
  const double heavy = ratio_of(*reg.level(3).codec, *gen, 2 << 20);
  EXPECT_GT(light, 0.30);
  EXPECT_LT(light, 0.55);
  EXPECT_GT(heavy, 0.20);
  EXPECT_LT(heavy, 0.40);
  EXPECT_LT(heavy, light);
}

TEST(RatioBands, LowCorpusMatchesJpegBand) {
  // image.jpg: "compression ratio ranged between 90-95 %".
  const auto& reg = CodecRegistry::standard();
  for (std::size_t level = 1; level < reg.level_count(); ++level) {
    auto gen = make_generator(Compressibility::kLow, 7);
    const double r = ratio_of(*reg.level(level).codec, *gen, 2 << 20);
    EXPECT_GT(r, 0.85) << reg.level(level).label;
    EXPECT_LT(r, 1.00) << reg.level(level).label;
  }
}

// --- entropy probes ---------------------------------------------------------

TEST(Entropy, OrdersTheClasses) {
  auto hi = make_generator(Compressibility::kHigh, 5);
  auto mo = make_generator(Compressibility::kModerate, 5);
  auto lo = make_generator(Compressibility::kLow, 5);
  const double eh = shannon_entropy(take(*hi, 1 << 20));
  const double em = shannon_entropy(take(*mo, 1 << 20));
  const double el = shannon_entropy(take(*lo, 1 << 20));
  EXPECT_LT(eh, em);
  EXPECT_LT(em, el);
  EXPECT_GT(el, 7.9);  // near uniform
  EXPECT_LT(eh, 2.0);
}

TEST(Entropy, KnownDistributions) {
  common::Bytes zeros(4096, 0);
  EXPECT_DOUBLE_EQ(shannon_entropy(zeros), 0.0);
  common::Bytes uniform(256 * 16);
  for (std::size_t i = 0; i < uniform.size(); ++i) {
    uniform[i] = static_cast<std::uint8_t>(i);
  }
  EXPECT_NEAR(shannon_entropy(uniform), 8.0, 1e-9);
  EXPECT_EQ(shannon_entropy({}), 0.0);
}

TEST(Factory, NamesAndLabels) {
  EXPECT_STREQ(to_string(Compressibility::kHigh), "HIGH");
  EXPECT_STREQ(to_string(Compressibility::kModerate), "MODERATE");
  EXPECT_STREQ(to_string(Compressibility::kLow), "LOW");
  EXPECT_NE(make_generator(Compressibility::kHigh)->name().find("HIGH"),
            std::string::npos);
}

}  // namespace
}  // namespace strato::corpus
