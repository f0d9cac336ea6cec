// DeflateLz: LZ77 + canonical Huffman coding (a deflate-style codec).
//
// An additional rung between the byte-aligned MEDIUM format and the
// range-coded HEAVY codec: MediumLz's LZ77 parse, taken as sequences
// (lz77_medium_sequences) rather than LZ4 bytes, with literals/lengths/
// distances entropy-coded by per-block canonical Huffman tables. Roughly MediumLz's speed class with a
// distinctly better ratio — used by the ladder-generality experiments
// (the paper's Algorithm 1 takes any number of ordered levels).
//
// Stream layout per block:
//   byte 0      marker: 0 = coded, 1 = stored raw, 2 = coded with a
//               sparse table
//   coded:      275 + 16 code lengths (4 bits each, packed LSB-first),
//               then the Huffman bit stream terminated by EOB.
//   sparse:     275 + 16 presence bits, then the 4-bit code length
//               (1-15) of each present symbol in symbol order, then the
//               same Huffman bit stream. The encoder writes it only when
//               it is strictly shorter than the 291 dense lengths.
// All tables are per block; blocks stay self-contained.
#pragma once

#include "compress/codec.h"

namespace strato::compress {

/// Extra codec id (the paper ladder uses 0-3).
inline constexpr std::uint8_t kCodecDeflateLz = 4;

class DeflateLz final : public Codec {
 public:
  [[nodiscard]] std::uint8_t id() const override { return kCodecDeflateLz; }
  [[nodiscard]] std::string name() const override { return "deflatelz"; }
  [[nodiscard]] std::size_t max_compressed_size(std::size_t n) const override {
    return n + 16;
  }
  std::size_t compress(common::ByteSpan src,
                       common::MutableByteSpan dst) const override;
  std::size_t decompress(common::ByteSpan src,
                         common::MutableByteSpan dst) const override;
  using Codec::compress;
  using Codec::decompress;
};

}  // namespace strato::compress
