// Byte-oriented LZ77 engine (QuickLZ substitute).
//
// One parse serves both the LIGHT (FastLz) and MEDIUM (MediumLz) levels,
// mirroring the paper's use of QuickLZ at two settings: the effort is
// the rung, whose detail::LzShape (compress/lz_common.h) fixes the match
// search; both parse greedily, and LIGHT skips ahead through literal
// runs. The parse writes either the LZ4-style bytes below or, for the
// DEFLATE rung, MEDIUM's sequences; only lz77.cc knows the byte format:
//
//   sequence := token | [lit-len ext]* | literals | offset16 | [match-len ext]*
//   token    := (literal_count:4 | match_len-4:4), 15 escapes to extension
//               bytes of 255... terminated by a byte < 255
//   offset16 := little-endian distance in [1, 65535]
//
// A block ends with a final sequence that stops after its literals.
// Matches are at least 4 bytes; the last 5 bytes of a block are always
// emitted as literals (simplifies safe copy loops).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/bytes.h"
#include "compress/codec.h"

namespace strato::compress {

namespace detail {
class LightWindowHeads;
}  // namespace detail

/// The rung an LZ77 parse runs at.
enum class LzEffort { kLight, kMedium };

/// Compress at the given rung. Returns bytes written to dst.
/// dst must hold at least lz77_max_compressed_size(src.size()).
std::size_t lz77_compress(common::ByteSpan src, common::MutableByteSpan dst,
                          LzEffort effort);

/// Decompress an LZ77 block; dst.size() must be the exact raw size.
/// @throws CodecError on malformed input.
std::size_t lz77_decompress(common::ByteSpan src, common::MutableByteSpan dst);

/// History-aware LIGHT variant: compress buffer[history_len..] with
/// matches allowed to reach back into buffer[0..history_len) (the
/// retained window of previous blocks). `heads` is the window's match
/// table (detail::LightWindowHeads), carried from the call that compressed
/// the previous block: this call inserts the positions it gained and
/// leaves it indexing the whole buffer. With history_len = 0 and a fresh
/// table this is lz77_compress at LzEffort::kLight. Used by the streaming
/// (non-self-contained) mode that ablates the paper's block-independence
/// design choice.
std::size_t lz77_compress_with_history(common::ByteSpan buffer,
                                       std::size_t history_len,
                                       common::MutableByteSpan dst,
                                       detail::LightWindowHeads& heads);

/// One sequence of a parse: a literal run followed by a match (length 0
/// marks the final, literal-only sequence). `lit` points into the source.
struct LzSeq {
  const std::uint8_t* lit = nullptr;
  std::uint32_t lit_len = 0;
  std::uint32_t length = 0;
  std::uint32_t offset = 0;
};

/// MEDIUM's greedy parse of src as sequences: exactly the sequences
/// lz77_compress(src, dst, LzEffort::kMedium) writes as bytes. The LZ
/// stage of DeflateLz; `seqs` is cleared first.
void lz77_medium_sequences(common::ByteSpan src, std::vector<LzSeq>& seqs);

/// Decompress into buffer[history_len .. history_len+raw_size); match
/// copies may read from the history prefix. Returns bytes written.
std::size_t lz77_decompress_with_history(common::ByteSpan src,
                                         common::MutableByteSpan buffer,
                                         std::size_t history_len,
                                         std::size_t raw_size);

/// Worst-case output bound for `n` input bytes. Includes 32 bytes of
/// slack beyond the tight bound so the encoder can move literal runs in
/// fixed-size 16-byte copies (the bytes past the returned compressed size
/// are scratch garbage, never part of the wire).
constexpr std::size_t lz77_max_compressed_size(std::size_t n) {
  return n + n / 255 + 48;
}

/// Level 1, LIGHT: greedy single-probe matcher, QuickLZ-fastest analogue.
class FastLz final : public Codec {
 public:
  [[nodiscard]] std::uint8_t id() const override { return kCodecFastLz; }
  [[nodiscard]] std::string name() const override { return "fastlz"; }
  [[nodiscard]] std::size_t max_compressed_size(std::size_t n) const override {
    return lz77_max_compressed_size(n);
  }
  std::size_t compress(common::ByteSpan src,
                       common::MutableByteSpan dst) const override;
  std::size_t decompress(common::ByteSpan src,
                         common::MutableByteSpan dst) const override;
  using Codec::compress;
  using Codec::decompress;
};

/// Level 2, MEDIUM: greedy hash chains (8 candidates per search),
/// QuickLZ-ratio analogue — better ratio, a few times slower.
class MediumLz final : public Codec {
 public:
  [[nodiscard]] std::uint8_t id() const override { return kCodecMediumLz; }
  [[nodiscard]] std::string name() const override { return "mediumlz"; }
  [[nodiscard]] std::size_t max_compressed_size(std::size_t n) const override {
    return lz77_max_compressed_size(n);
  }
  std::size_t compress(common::ByteSpan src,
                       common::MutableByteSpan dst) const override;
  std::size_t decompress(common::ByteSpan src,
                         common::MutableByteSpan dst) const override;
  using Codec::compress;
  using Codec::decompress;
};

}  // namespace strato::compress
