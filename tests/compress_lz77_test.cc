// LZ77 engine (FastLz / MediumLz): round trips, format edge cases, the
// decoder's inline sequence path against a byte-at-a-time reference,
// malformed-input rejection, effort-level ordering.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "common/rng.h"
#include "compress/deflate_lz.h"
#include "compress/heavy_lz.h"
#include "compress/lz77.h"
#include "corpus/generator.h"

namespace strato::compress {
namespace {

common::Bytes roundtrip(const Codec& codec, common::ByteSpan src) {
  common::Bytes comp(codec.max_compressed_size(src.size()));
  const std::size_t n = codec.compress(src, comp);
  EXPECT_LE(n, codec.max_compressed_size(src.size()));
  comp.resize(n);
  common::Bytes back(src.size());
  EXPECT_EQ(codec.decompress(comp, back), src.size());
  return back;
}

void put_length_ext(common::Bytes& wire, std::size_t rem) {
  for (; rem >= 255; rem -= 255) wire.push_back(255);
  wire.push_back(static_cast<std::uint8_t>(rem));
}

/// Appends one sequence in the token format documented in lz77.h: the
/// literals, then a match of `match_len` bytes at `offset` (match_len 0
/// writes the final, literal-only sequence). The fields are written as
/// given, so a test can spell out wires the encoder never emits.
void put_sequence(common::Bytes& wire, common::ByteSpan literals,
                  std::size_t offset, std::size_t match_len) {
  const std::size_t lit_code = std::min<std::size_t>(literals.size(), 15);
  const std::size_t ml_code = match_len == 0 ? 0 : match_len - 4;
  wire.push_back(static_cast<std::uint8_t>(
      lit_code << 4 | std::min<std::size_t>(ml_code, 15)));
  if (literals.size() >= 15) put_length_ext(wire, literals.size() - 15);
  wire.insert(wire.end(), literals.begin(), literals.end());
  if (match_len == 0) return;
  wire.push_back(static_cast<std::uint8_t>(offset & 0xFF));
  wire.push_back(static_cast<std::uint8_t>(offset >> 8));
  if (ml_code >= 15) put_length_ext(wire, ml_code - 15);
}

/// The byte-at-a-time meaning of a sequence: append the literals, then
/// each match byte from `offset` back in what is already written.
void expand_sequence(common::Bytes& raw, common::ByteSpan literals,
                     std::size_t offset, std::size_t match_len) {
  raw.insert(raw.end(), literals.begin(), literals.end());
  for (std::size_t i = 0; i < match_len; ++i) {
    raw.push_back(raw[raw.size() - offset]);
  }
}

common::Bytes random_bytes(std::size_t n, std::uint64_t seed) {
  common::Xoshiro256 rng(seed);
  common::Bytes out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng());
  return out;
}

template <typename CodecT>
class LzRoundTrip : public ::testing::Test {
 protected:
  CodecT codec;
};
using LzCodecs = ::testing::Types<FastLz, MediumLz>;
TYPED_TEST_SUITE(LzRoundTrip, LzCodecs);

TYPED_TEST(LzRoundTrip, EmptyInput) {
  const common::Bytes empty;
  EXPECT_EQ(roundtrip(this->codec, empty), empty);
}

TYPED_TEST(LzRoundTrip, TinyInputs) {
  for (std::size_t n = 1; n <= 32; ++n) {
    common::Bytes data(n);
    for (std::size_t i = 0; i < n; ++i) {
      data[i] = static_cast<std::uint8_t>(i * 37);
    }
    EXPECT_EQ(roundtrip(this->codec, data), data) << "n=" << n;
  }
}

TYPED_TEST(LzRoundTrip, AllZeros) {
  const common::Bytes data(200000, 0);
  EXPECT_EQ(roundtrip(this->codec, data), data);
  // Runs must compress dramatically.
  EXPECT_LT(this->codec.compress(data).size(), data.size() / 50);
}

TYPED_TEST(LzRoundTrip, PeriodicPattern) {
  common::Bytes data(100000);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>("abcdefg"[i % 7]);
  }
  EXPECT_EQ(roundtrip(this->codec, data), data);
}

TYPED_TEST(LzRoundTrip, RandomIncompressibleFitsBound) {
  common::Xoshiro256 rng(3);
  common::Bytes data(131072);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng());
  const auto comp = this->codec.compress(data);
  EXPECT_EQ(roundtrip(this->codec, data), data);
  EXPECT_LE(comp.size(), lz77_max_compressed_size(data.size()));
}

TYPED_TEST(LzRoundTrip, AllCorpora) {
  for (const auto c :
       {corpus::Compressibility::kHigh, corpus::Compressibility::kModerate,
        corpus::Compressibility::kLow}) {
    auto gen = corpus::make_generator(c, 11);
    const auto data = corpus::take(*gen, 300000);
    EXPECT_EQ(roundtrip(this->codec, data), data) << corpus::to_string(c);
  }
}

TYPED_TEST(LzRoundTrip, LongMatchExtensions) {
  // > 15+255 literals then > 15+255 match bytes forces both extension
  // paths of the token format.
  common::Xoshiro256 rng(5);
  common::Bytes data;
  for (int i = 0; i < 600; ++i) {
    data.push_back(static_cast<std::uint8_t>(rng()));
  }
  const common::Bytes run(1000, 0x55);
  data.insert(data.end(), run.begin(), run.end());
  data.insert(data.end(), run.begin(), run.end());
  EXPECT_EQ(roundtrip(this->codec, data), data);
}

class SeededRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeededRoundTrip, MixedStructuredRandom) {
  // Property: any byte string round-trips. Build adversarial mixes of
  // runs, copies and noise.
  common::Xoshiro256 rng(GetParam());
  common::Bytes data;
  while (data.size() < 150000) {
    switch (rng.below(4)) {
      case 0: {  // run
        data.insert(data.end(), 1 + rng.below(500),
                    static_cast<std::uint8_t>(rng()));
        break;
      }
      case 1: {  // noise
        const std::size_t n = 1 + rng.below(300);
        for (std::size_t i = 0; i < n; ++i) {
          data.push_back(static_cast<std::uint8_t>(rng()));
        }
        break;
      }
      case 2: {  // near copy from earlier
        if (data.empty()) break;
        const std::size_t start = rng.below(data.size());
        const std::size_t n =
            std::min<std::size_t>(1 + rng.below(800), data.size() - start);
        for (std::size_t i = 0; i < n; ++i) {
          data.push_back(data[start + i]);
        }
        break;
      }
      default: {  // single byte
        data.push_back(static_cast<std::uint8_t>(rng()));
        break;
      }
    }
  }
  FastLz fast;
  MediumLz medium;
  EXPECT_EQ(roundtrip(fast, data), data);
  EXPECT_EQ(roundtrip(medium, data), data);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeededRoundTrip,
                         ::testing::Range<std::uint64_t>(1, 21));

TEST(LzFormat, MediumNeverWorseRatioThanFastOnStructuredData) {
  for (const auto c :
       {corpus::Compressibility::kHigh, corpus::Compressibility::kModerate}) {
    auto gen = corpus::make_generator(c, 2);
    const auto data = corpus::take(*gen, 1 << 20);
    FastLz fast;
    MediumLz medium;
    EXPECT_LE(medium.compress(data).size(), fast.compress(data).size())
        << corpus::to_string(c);
  }
}

// MEDIUM's ratio budget at block scale, on the draw the golden digests
// pin (seed 7, 8 x 128 KiB blocks, each compressed on its own). MEDIUM
// parses greedily with 8 chain candidates per search; this is the floor
// that choice was made under: MEDIUM's output at most 0.92x LIGHT's on
// MODERATE and 0.75x on HIGH, so the rung Algorithm 1 chooses between
// stays distinct from LIGHT, and HEAVY < DEFLATE < MEDIUM on both. The
// greedy parse reads 0.90x and 0.66x (the lazy one-ahead parse before it
// 0.88x and 0.63x); chain depth 4 reads about 0.94x on MODERATE and fails.
TEST(LzFormat, MediumHoldsItsRungAtBlockScale) {
  const FastLz light;
  const MediumLz medium;
  const DeflateLz deflate;
  const HeavyLz heavy;
  for (const auto& [c, max_vs_light] :
       {std::pair{corpus::Compressibility::kModerate, 0.92},
        std::pair{corpus::Compressibility::kHigh, 0.75}}) {
    SCOPED_TRACE(corpus::to_string(c));
    auto gen = corpus::make_generator(c, 7);
    std::size_t light_bytes = 0, medium_bytes = 0, deflate_bytes = 0,
                heavy_bytes = 0;
    for (int b = 0; b < 8; ++b) {
      const common::Bytes block = corpus::take(*gen, 128 << 10);
      light_bytes += light.compress(block).size();
      medium_bytes += medium.compress(block).size();
      deflate_bytes += deflate.compress(block).size();
      heavy_bytes += heavy.compress(block).size();
    }
    EXPECT_LE(static_cast<double>(medium_bytes),
              max_vs_light * static_cast<double>(light_bytes));
    EXPECT_LT(deflate_bytes, medium_bytes);
    EXPECT_LT(heavy_bytes, deflate_bytes);
  }
}

// --- decode fast path --------------------------------------------------------

// Every (literal run, offset, match length) class the decoder's inline
// sequence path distinguishes, against the byte-at-a-time expansion. Each
// tested sequence ends 0-64 bytes before the end of the input and of an
// exact-size output buffer, so the sweep crosses every margin where the
// decoder trades its fixed-size copies for the exact tail path. Both
// buffers are views that end where their heap allocation ends, so a copy
// that overshoots either one is a heap overflow under the ASan builds.
// Each wire decodes once as a whole block (the reach-back prefix decoded
// in-block) and once against a retained history window.
TEST(LzFastPath, SequenceSweepMatchesByteReference) {
  std::vector<std::size_t> offsets;
  for (std::size_t o = 1; o <= 70; ++o) offsets.push_back(o);
  offsets.insert(offsets.end(), {255, 4096, 65535});
  std::vector<std::size_t> lengths;
  for (std::size_t n = 4; n <= 40; ++n) lengths.push_back(n);
  lengths.insert(lengths.end(), {270, 271, 272, 273, 274, 600});
  const common::Bytes noise = random_bytes(65535 + 256, 0xFA57);
  const common::ByteSpan tail_noise(noise.data() + 128, 64);

  common::Bytes wire;
  common::Bytes ref;
  for (const std::size_t offset : offsets) {
    // A prefix sequence of `offset` literals and a 4-byte match gives
    // every tested offset a decoded byte to reach.
    const common::ByteSpan prefix_literals(noise.data() + 256, offset);
    common::Bytes prefix_wire;
    put_sequence(prefix_wire, prefix_literals, offset, 4);
    common::Bytes history;
    expand_sequence(history, prefix_literals, offset, 4);
    common::Bytes in_store(prefix_wire.size() + 128);
    common::Bytes out_store(history.size() + 16 + 600 + 64);
    wire = prefix_wire;
    ref = history;
    for (const std::size_t len : lengths) {
      for (std::size_t lit = 0; lit <= 16; ++lit) {
        const common::ByteSpan literals(noise.data() + lit, lit);
        for (std::size_t tail = 0; tail <= 64; ++tail) {
          wire.resize(prefix_wire.size());
          put_sequence(wire, literals, offset, len);
          put_sequence(wire, tail_noise.first(tail), 0, 0);
          ref.resize(history.size());
          expand_sequence(ref, literals, offset, len);
          expand_sequence(ref, tail_noise.first(tail), 0, 0);

          const auto in = common::span_of(in_store).last(wire.size());
          std::copy(wire.begin(), wire.end(), in.begin());
          const auto out = common::span_of(out_store).last(ref.size());
          lz77_decompress(in, out);
          ASSERT_TRUE(std::equal(out.begin(), out.end(), ref.begin()))
              << "block: offset=" << offset << " len=" << len
              << " lit=" << lit << " tail=" << tail;

          // Same bytes, now with the prefix as history: clobber what the
          // block decode wrote past it, then decode only the suffix.
          std::fill(out.begin() + static_cast<std::ptrdiff_t>(history.size()),
                    out.end(), std::uint8_t{0xA5});
          lz77_decompress_with_history(in.subspan(prefix_wire.size()), out,
                                       history.size(),
                                       ref.size() - history.size());
          ASSERT_TRUE(std::equal(out.begin(), out.end(), ref.begin()))
              << "history: offset=" << offset << " len=" << len
              << " lit=" << lit << " tail=" << tail;
        }
      }
    }
  }
}

// --- malformed input ---------------------------------------------------------

/// Valid sequences worth at least 64 bytes of wire and of output. A
/// malformed sequence appended after this lead-in, with 64 more bytes of
/// input and output ahead of it, is decoded by the inline sequence path
/// rather than the exact tail path the short wires below exercise.
struct Lead {
  common::Bytes wire;
  std::size_t raw_size = 0;
};

Lead fast_path_lead() {
  const common::Bytes literals = random_bytes(14, 0x1EAD);
  Lead lead;
  common::Bytes raw;
  for (const std::size_t offset : {5, 30, 1, 40}) {
    put_sequence(lead.wire, literals, offset, 20);
    expand_sequence(raw, literals, offset, 20);
  }
  lead.raw_size = raw.size();
  return lead;
}

/// Ends a wire with a final sequence of 64 literals.
void put_final_64(common::Bytes& wire) {
  const common::Bytes literals = random_bytes(64, 0xF1A1);
  put_sequence(wire, literals, 0, 0);
}

const common::Bytes kThreeLiterals = {'a', 'b', 'c'};

TEST(LzMalformed, TruncatedStream) {
  FastLz codec;
  common::Bytes data(10000, 0x11);
  auto comp = codec.compress(data);
  common::Bytes out(data.size());
  for (const std::size_t cut : {comp.size() / 2, comp.size() - 1}) {
    EXPECT_THROW(
        codec.decompress(common::ByteSpan(comp.data(), cut), out),
        CodecError);
  }
  // A match-length extension of 70 bytes of 255 that the input ends in
  // the middle of.
  Lead lead = fast_path_lead();
  put_sequence(lead.wire, kThreeLiterals, 8, 4 + 15 + 70 * 255);
  lead.wire.pop_back();  // the extension's terminating byte
  common::Bytes fast_out(lead.raw_size + 200);
  EXPECT_THROW(lz77_decompress(lead.wire, fast_out), CodecError);
}

TEST(LzMalformed, ZeroOffsetRejected) {
  // token: 1 literal + match; offset 0 is invalid.
  const common::Bytes bogus = {0x10 | 0x0, 'x', 0x00, 0x00};
  common::Bytes out(100);
  EXPECT_THROW(lz77_decompress(bogus, out), CodecError);

  Lead lead = fast_path_lead();
  put_sequence(lead.wire, kThreeLiterals, 0, 8);
  put_final_64(lead.wire);
  common::Bytes fast_out(lead.raw_size + 3 + 8 + 64);
  EXPECT_THROW(lz77_decompress(lead.wire, fast_out), CodecError);
}

TEST(LzMalformed, OffsetBeforeBlockStart) {
  // 1 literal then a match at distance 5 (only 1 byte of history).
  const common::Bytes bogus = {0x10, 'x', 0x05, 0x00};
  common::Bytes out(100);
  EXPECT_THROW(lz77_decompress(bogus, out), CodecError);

  // A match reaching one byte before the block start.
  Lead lead = fast_path_lead();
  put_sequence(lead.wire, kThreeLiterals, lead.raw_size + 3 + 1, 8);
  put_final_64(lead.wire);
  common::Bytes fast_out(lead.raw_size + 3 + 8 + 64);
  EXPECT_THROW(lz77_decompress(lead.wire, fast_out), CodecError);
}

TEST(LzMalformed, MatchOverrunRejected) {
  // A 600-byte match with only 100 bytes of output left.
  Lead lead = fast_path_lead();
  put_sequence(lead.wire, kThreeLiterals, 8, 600);
  put_final_64(lead.wire);
  common::Bytes out(lead.raw_size + 3 + 100);
  EXPECT_THROW(lz77_decompress(lead.wire, out), CodecError);
}

TEST(LzMalformed, OutputSizeMismatch) {
  FastLz codec;
  common::Bytes data(1000, 0x22);
  const auto comp = codec.compress(data);
  common::Bytes small(data.size() - 1);
  EXPECT_THROW(codec.decompress(comp, small), CodecError);
  common::Bytes big(data.size() + 1);
  EXPECT_THROW(codec.decompress(comp, big), CodecError);
}

TEST(LzMalformed, EmptyInputNonEmptyOutput) {
  common::Bytes out(5);
  EXPECT_THROW(lz77_decompress({}, out), CodecError);
}

TEST(LzFormat, MaxCompressedSizeIsMonotone) {
  EXPECT_GE(lz77_max_compressed_size(1000), 1000u);
  EXPECT_GT(lz77_max_compressed_size(2000), lz77_max_compressed_size(1000));
}

}  // namespace
}  // namespace strato::compress
