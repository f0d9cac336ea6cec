// Golden wire-format vectors.
//
// The frame layout (magic, level, codec id, sizes, XXH64) and the encoded
// bytes of every ladder rung are locked against checked-in hex files under
// tests/data/. Three guarantees, strongest first:
//
//   1. decoder compatibility — every golden frame still decodes to the
//      expected payload (old wire data must stay readable forever);
//   2. header layout — field offsets and values re-derived by hand match
//      parse_header();
//   3. encoder determinism — encoding the reference payload today yields
//      the golden bytes exactly.
//
// A deliberate encoder change invalidates only (3): first move the
// rung's file to a new name and list it in PreviousEncoderFramesStillDecode,
// so the old encoder's frame keeps guarantee 1, then regenerate with
//   STRATO_REGEN_GOLDEN=1 ./build/tests/compress_golden_test
// and commit the diff — which makes the wire-format change reviewable.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/checksum.h"
#include "common/rng.h"
#include "compress/framing.h"
#include "compress/registry.h"
#include "compress/streaming.h"
#include "corpus/generator.h"

namespace strato::compress {
namespace {

#ifndef STRATO_TEST_DATA_DIR
#error "STRATO_TEST_DATA_DIR must point at tests/data (set by CMake)"
#endif

std::string data_path(const std::string& name) {
  return std::string(STRATO_TEST_DATA_DIR) + "/" + name;
}

bool regen() { return std::getenv("STRATO_REGEN_GOLDEN") != nullptr; }

/// Reference payload: pure arithmetic (platform- and library-independent),
/// mixing compressible structure (repeats, ramps) with irregular bytes so
/// every codec exercises literals and matches.
common::Bytes reference_payload() {
  common::Bytes data;
  data.reserve(6000);
  for (int i = 0; i < 2000; ++i) {
    data.push_back(static_cast<std::uint8_t>((i * i + 7 * i) >> 3));
  }
  for (int rep = 0; rep < 4; ++rep) {
    for (int i = 0; i < 500; ++i) {
      data.push_back(static_cast<std::uint8_t>(i % 97));
    }
  }
  for (int i = 0; i < 2000; ++i) {
    data.push_back(static_cast<std::uint8_t>((i * 2654435761u) >> 13));
  }
  return data;
}

/// Incompressible payload (seeded PRNG): forces the stored fallback.
common::Bytes incompressible_payload() {
  common::Xoshiro256 rng(0x901D);
  common::Bytes data(4096);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng());
  return data;
}

std::string to_hex(const common::Bytes& bytes) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2 + bytes.size() / 16);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    out.push_back(digits[bytes[i] >> 4]);
    out.push_back(digits[bytes[i] & 0xF]);
    if (i % 32 == 31) out.push_back('\n');
  }
  if (!out.empty() && out.back() != '\n') out.push_back('\n');
  return out;
}

common::Bytes from_hex(const std::string& text) {
  auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    return -1;
  };
  common::Bytes out;
  int hi = -1;
  for (const char c : text) {
    const int v = nibble(c);
    if (v < 0) continue;  // whitespace
    if (hi < 0) {
      hi = v;
    } else {
      out.push_back(static_cast<std::uint8_t>((hi << 4) | v));
      hi = -1;
    }
  }
  return out;
}

/// The bytes of a checked-in hex file.
common::Bytes load_hex(const std::string& name) {
  const std::string path = data_path(name);
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing golden file " << path;
  std::ostringstream text;
  text << in.rdbuf();
  return from_hex(text.str());
}

/// Load a golden file, or (re)write it when STRATO_REGEN_GOLDEN is set.
common::Bytes golden(const std::string& name, const common::Bytes& current) {
  if (regen()) {
    const std::string path = data_path(name);
    std::ofstream out(path, std::ios::trunc);
    out << to_hex(current);
    EXPECT_TRUE(out.good()) << "failed to write " << path;
    std::fprintf(stderr, "[golden] regenerated %s (%zu bytes)\n", path.c_str(),
                 current.size());
    return current;
  }
  return load_hex(name);
}

std::string lower(std::string s) {
  for (auto& c : s) c = static_cast<char>(std::tolower(c));
  return s;
}

TEST(Golden, EveryExtendedLadderRung) {
  const auto& registry = CodecRegistry::extended();
  const common::Bytes payload = reference_payload();
  for (std::size_t l = 0; l < registry.level_count(); ++l) {
    const auto& rung = registry.level(l);
    SCOPED_TRACE("level=" + rung.label);
    const common::Bytes frame = encode_block(
        *rung.codec, static_cast<std::uint8_t>(rung.level), payload);
    const common::Bytes gold =
        golden("frame_" + lower(rung.label) + ".hex", frame);

    // 1. Decoder compatibility: the stored bytes decode to the payload.
    EXPECT_EQ(decode_block(gold, registry), payload);
    // 2. Layout lock on the stored bytes (see the header test below for
    //    the hand re-derivation).
    const FrameHeader hdr = parse_header(gold);
    EXPECT_EQ(hdr.level, rung.level);
    EXPECT_EQ(hdr.raw_size, payload.size());
    EXPECT_EQ(hdr.checksum, common::xxh64(payload));
    EXPECT_EQ(gold.size(), kFrameHeaderSize + hdr.comp_size);
    // 3. Encoder determinism: today's encoder reproduces the golden bytes.
    EXPECT_EQ(frame, gold)
        << "wire bytes changed — if intentional, regenerate goldens with "
           "STRATO_REGEN_GOLDEN=1 and commit the diff";
  }
}

// Frames an earlier encoder wrote, kept under new names when the frames
// above were regenerated: MEDIUM's lazy parse and DEFLATE before its
// sparse code-length table. Old wire data must stay readable.
TEST(Golden, PreviousEncoderFramesStillDecode) {
  const auto& registry = CodecRegistry::extended();
  const common::Bytes payload = reference_payload();
  for (const char* name : {"frame_medium_lazy.hex", "frame_deflate_v1.hex"}) {
    SCOPED_TRACE(name);
    const common::Bytes frame = load_hex(name);
    EXPECT_EQ(decode_block(frame, registry), payload);
    // Not what today's encoder writes, or the file would test nothing new.
    const FrameHeader hdr = parse_header(frame);
    const auto& rung = registry.level(hdr.level);
    EXPECT_NE(frame, encode_block(*rung.codec, hdr.level, payload));
  }
}

TEST(Golden, StoredFallbackFrame) {
  const auto& registry = CodecRegistry::extended();
  const common::Bytes payload = incompressible_payload();
  // HEAVY on random bytes must fall back to stored: codec id NULL, comp
  // size == raw size, level byte preserved.
  const auto& heavy = registry.level(registry.level_count() - 1);
  const common::Bytes frame = encode_block(
      *heavy.codec, static_cast<std::uint8_t>(heavy.level), payload);
  const common::Bytes gold = golden("frame_stored_fallback.hex", frame);

  EXPECT_EQ(decode_block(gold, registry), payload);
  const FrameHeader hdr = parse_header(gold);
  EXPECT_EQ(hdr.codec_id, kCodecNull);
  EXPECT_EQ(hdr.level, heavy.level);
  EXPECT_EQ(hdr.comp_size, hdr.raw_size);
  EXPECT_EQ(frame, gold);
}

TEST(Golden, EmptyPayloadFrame) {
  const auto& registry = CodecRegistry::extended();
  const common::Bytes frame = encode_block(*registry.level(2).codec, 2, {});
  const common::Bytes gold = golden("frame_empty.hex", frame);
  EXPECT_EQ(decode_block(gold, registry).size(), 0u);
  EXPECT_EQ(gold.size(), kFrameHeaderSize);
  EXPECT_EQ(frame, gold);
}

TEST(Golden, HeaderLayoutRederivedByHand) {
  // Independent re-derivation of the layout documented in framing.h: any
  // accidental change to offsets, endianness or the magic constant fails
  // here even if encoder and parser drift together.
  const common::Bytes payload = reference_payload();
  const auto& registry = CodecRegistry::extended();
  const auto& rung = registry.level(1);  // LIGHT
  const common::Bytes frame = encode_block(
      *rung.codec, static_cast<std::uint8_t>(rung.level), payload);

  ASSERT_GE(frame.size(), kFrameHeaderSize);
  EXPECT_EQ(kFrameHeaderSize, 24u);
  // magic "SBK1", little-endian at offset 0
  EXPECT_EQ(frame[0], 'S');
  EXPECT_EQ(frame[1], 'B');
  EXPECT_EQ(frame[2], 'K');
  EXPECT_EQ(frame[3], '1');
  EXPECT_EQ(common::load_le32(frame.data()), kFrameMagic);
  // level at 4, codec id at 5, reserved zeros at 6..7
  EXPECT_EQ(frame[4], rung.level);
  EXPECT_EQ(frame[5], rung.codec->id());
  EXPECT_EQ(frame[6], 0);
  EXPECT_EQ(frame[7], 0);
  // raw size LE at 8, comp size LE at 12, XXH64(raw payload) LE at 16
  EXPECT_EQ(common::load_le32(frame.data() + 8), payload.size());
  EXPECT_EQ(common::load_le32(frame.data() + 12),
            frame.size() - kFrameHeaderSize);
  EXPECT_EQ(common::load_le64(frame.data() + 16), common::xxh64(payload));

  // The hand-derived fields agree with the parser.
  const FrameHeader hdr = parse_header(frame);
  EXPECT_EQ(hdr.level, frame[4]);
  EXPECT_EQ(hdr.codec_id, frame[5]);
  EXPECT_EQ(hdr.raw_size, common::load_le32(frame.data() + 8));
  EXPECT_EQ(hdr.comp_size, common::load_le32(frame.data() + 12));
  EXPECT_EQ(hdr.checksum, common::load_le64(frame.data() + 16));
}

// --- block-scale encoder digests ---------------------------------------------
//
// The reference payload is 6,000 bytes, so the vectors above never encode
// a 128 KiB block, a distance past 16 bits, an input under LZ77's 17-byte
// minimum or one inside HEAVY's 3-byte tail. These digests pin the XXH64
// and total size of each compressing extended rung's output on the seed-7
// corpora at those scales, and of the streaming compressor's cross-block
// window. A deliberate encoder change prints the new table under
// STRATO_REGEN_GOLDEN=1.

struct Digest {
  std::string name;  // corpus/shape/rung
  std::uint64_t xxh64 = 0;
  std::size_t bytes = 0;
};

const Digest kPinnedDigests[] = {
    {"HIGH/blocks/LIGHT", 0x89f4bd11ed1f9badull, 171619},
    {"HIGH/sizes/LIGHT", 0x8e390bc719658cb4ull, 11119},
    {"HIGH/blocks/MEDIUM", 0x9b71768dcaab90fcull, 113826},
    {"HIGH/sizes/MEDIUM", 0x9dcca57325e4a59aull, 9934},
    {"HIGH/blocks/DEFLATE", 0xf4decf467c90089bull, 60867},
    {"HIGH/sizes/DEFLATE", 0xcad38bfcb9564c24ull, 15435},
    {"HIGH/blocks/HEAVY", 0x1de97c78ed1250faull, 50046},
    {"HIGH/sizes/HEAVY", 0xb36eb645f45d1dc7ull, 6501},
    {"HIGH/stream/LIGHT", 0x0dcd24a7d7a33d18ull, 83735},
    {"MODERATE/blocks/LIGHT", 0xa9a206982261aa3aull, 458740},
    {"MODERATE/sizes/LIGHT", 0x2c8248c650333029ull, 39052},
    {"MODERATE/blocks/MEDIUM", 0x3c5803b18b33ca27ull, 412670},
    {"MODERATE/sizes/MEDIUM", 0x1e85d6ec09fc2cbbull, 38820},
    {"MODERATE/blocks/DEFLATE", 0x43eff3a3a7fbeec7ull, 316960},
    {"MODERATE/sizes/DEFLATE", 0xb654297f1f14eab1ull, 36430},
    {"MODERATE/blocks/HEAVY", 0xcc9eecabb8723267ull, 296224},
    {"MODERATE/sizes/HEAVY", 0x9bf8e1ee951be50eull, 32890},
    {"MODERATE/stream/LIGHT", 0xf885d97f664dc204ull, 223585},
    {"LOW/blocks/LIGHT", 0xd8afcc403148bfaeull, 983178},
    {"LOW/sizes/LIGHT", 0xb428c47390d2985cull, 45768},
    {"LOW/blocks/MEDIUM", 0x386f0a5778602ce7ull, 982085},
    {"LOW/sizes/MEDIUM", 0xb428c47390d2985cull, 45768},
    {"LOW/blocks/DEFLATE", 0xe3653a634df21243ull, 978248},
    {"LOW/sizes/DEFLATE", 0xe13ef5f50c0fd256ull, 45451},
    {"LOW/blocks/HEAVY", 0x7e6bab785c0144b1ull, 989021},
    {"LOW/sizes/HEAVY", 0xe13ef5f50c0fd256ull, 45451},
    {"LOW/stream/LIGHT", 0x7d11ab9c0a1d3f1aull, 491419},
};

/// XXH64 and size of the concatenated outputs of `encode` over `inputs`.
template <class Encode>
Digest digest_of(std::string name, const std::vector<common::Bytes>& inputs,
                 Encode encode) {
  common::Bytes all;
  for (const common::Bytes& in : inputs) {
    const common::Bytes out = encode(in);
    all.insert(all.end(), out.begin(), out.end());
  }
  return {std::move(name), common::xxh64(all), all.size()};
}

/// Consecutive seed-7 draws of the given sizes from a fresh generator.
std::vector<common::Bytes> seed7_inputs(corpus::Compressibility c,
                                        const std::vector<std::size_t>& sizes) {
  auto gen = corpus::make_generator(c, 7);
  std::vector<common::Bytes> inputs;
  for (const std::size_t n : sizes) inputs.push_back(corpus::take(*gen, n));
  return inputs;
}

std::vector<Digest> block_scale_digests() {
  const auto& registry = CodecRegistry::extended();
  std::vector<std::size_t> every_size;
  for (std::size_t n = 0; n <= 300; ++n) every_size.push_back(n);
  std::vector<Digest> got;
  for (const auto c :
       {corpus::Compressibility::kHigh, corpus::Compressibility::kModerate,
        corpus::Compressibility::kLow}) {
    const std::string corpus_name = corpus::to_string(c);
    const auto blocks = seed7_inputs(c, std::vector<std::size_t>(8, 128 << 10));
    const auto small = seed7_inputs(c, every_size);
    for (std::size_t l = 1; l < registry.level_count(); ++l) {
      const auto& rung = registry.level(l);
      auto encode = [&](const common::Bytes& in) {
        common::Bytes out(rung.codec->max_compressed_size(in.size()));
        out.resize(rung.codec->compress(in, out));
        return out;
      };
      got.push_back(
          digest_of(corpus_name + "/blocks/" + rung.label, blocks, encode));
      got.push_back(
          digest_of(corpus_name + "/sizes/" + rung.label, small, encode));
    }
    StreamingLzCompressor streaming;
    got.push_back(digest_of(
        corpus_name + "/stream/LIGHT",
        seed7_inputs(c, std::vector<std::size_t>(64, 8 << 10)),
        [&](const common::Bytes& in) { return streaming.compress_block(in); }));
  }
  return got;
}

TEST(GoldenDigest, ExtendedRungsAtBlockScale) {
  const std::vector<Digest> got = block_scale_digests();
  if (regen()) {
    for (const Digest& d : got) {
      std::fprintf(stderr, "    {\"%s\", 0x%016llxull, %zu},\n",
                   d.name.c_str(), static_cast<unsigned long long>(d.xxh64),
                   d.bytes);
    }
    return;
  }
  ASSERT_EQ(got.size(), std::size(kPinnedDigests));
  for (std::size_t i = 0; i < got.size(); ++i) {
    const Digest& want = kPinnedDigests[i];
    SCOPED_TRACE(want.name);
    EXPECT_EQ(got[i].name, want.name);
    EXPECT_EQ(got[i].xxh64, want.xxh64)
        << "encoder output changed — if intentional, print the new table "
           "with STRATO_REGEN_GOLDEN=1 and paste it";
    EXPECT_EQ(got[i].bytes, want.bytes);
  }
}

/// A copy of `v` in an allocation of exactly its size, so a read past
/// its end is a heap overflow under ASan.
common::Bytes exact_copy(const common::Bytes& v) {
  return common::Bytes(v.begin(), v.end());
}

// The digests above pin what the encoders write. This decodes the same
// inputs back into exact-size buffers, so every decoder replays matches
// that end 0-32 bytes before the end of its output (5-32 for LIGHT,
// MEDIUM and DEFLATE, whose last 5 bytes are literals), on both sides of
// detail::copy_match's fast/exact boundary, where a write past the end is
// an ASan heap-buffer-overflow.
TEST(GoldenDigest, ExtendedRungsRoundTripAtBlockScale) {
  const auto& registry = CodecRegistry::extended();
  std::vector<std::size_t> every_size;
  for (std::size_t n = 0; n <= 300; ++n) every_size.push_back(n);
  for (const auto c :
       {corpus::Compressibility::kHigh, corpus::Compressibility::kModerate,
        corpus::Compressibility::kLow}) {
    const std::string corpus_name = corpus::to_string(c);
    std::vector<common::Bytes> inputs =
        seed7_inputs(c, std::vector<std::size_t>(8, 128 << 10));
    for (common::Bytes& in : seed7_inputs(c, every_size)) {
      inputs.push_back(std::move(in));
    }
    for (std::size_t l = 1; l < registry.level_count(); ++l) {
      const auto& rung = registry.level(l);
      for (const common::Bytes& in : inputs) {
        common::Bytes out(rung.codec->max_compressed_size(in.size()));
        out.resize(rung.codec->compress(in, out));
        const common::Bytes wire = exact_copy(out);
        common::Bytes back(in.size());
        ASSERT_EQ(rung.codec->decompress(wire, back), in.size());
        ASSERT_EQ(back, in) << corpus_name << "/" << rung.label
                            << " n=" << in.size();
      }
    }
    // The streaming pair, with the decoder's window rebuilt in an
    // exact-size buffer (history, then the block) for each block.
    StreamingLzCompressor streaming;
    common::Bytes history;
    for (const common::Bytes& in :
         seed7_inputs(c, std::vector<std::size_t>(64, 8 << 10))) {
      const common::Bytes wire = exact_copy(streaming.compress_block(in));
      common::Bytes buffer(history.size() + in.size());
      std::copy(history.begin(), history.end(), buffer.begin());
      lz77_decompress_with_history(wire, buffer, history.size(), in.size());
      ASSERT_TRUE(std::equal(in.begin(), in.end(),
                             buffer.begin() + static_cast<std::ptrdiff_t>(
                                                  history.size())))
          << corpus_name << "/stream/LIGHT";
      history.assign(buffer.end() - static_cast<std::ptrdiff_t>(std::min(
                                        buffer.size(), kStreamingWindow)),
                     buffer.end());
    }
  }
}

}  // namespace
}  // namespace strato::compress
