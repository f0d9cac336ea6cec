#include "compress/deflate_lz.h"

#include <bit>
#include <cstring>
#include <vector>

#include "compress/huffman.h"
#include "compress/lz77.h"
#include "compress/lz_common.h"

namespace strato::compress {
namespace {

constexpr std::size_t kMinMatch = 4;
// Literal/length alphabet: 256 literals + 18 length slots + EOB.
constexpr std::uint32_t kNumLenSlots = 18;
constexpr std::uint32_t kEob = 256 + kNumLenSlots;
constexpr std::size_t kLitLenAlphabet = kEob + 1;
// Distance alphabet: bit_width(offset) in [1, 16] -> 16 slots.
constexpr std::size_t kDistAlphabet = 16;

// Every coded block opens with the code lengths of all kTableSymbols
// symbols, literal/length then distance, in one of two tables: dense, 4
// bits per symbol; or sparse, one presence bit per symbol and then 4 bits
// per present symbol, in symbol order. The encoder writes the sparse one
// only when it is strictly shorter, so it never grows a block.
constexpr std::size_t kTableSymbols = kLitLenAlphabet + kDistAlphabet;
constexpr std::uint8_t kMarkerCoded = 0;
constexpr std::uint8_t kMarkerStored = 1;
constexpr std::uint8_t kMarkerSparse = 2;

/// Per-thread scratch reused across blocks (parallel pipeline workers each
/// hold their own copy). Literal runs stay spans into the source instead
/// of one entry per byte, which keeps the parse allocation-free.
struct DeflateScratch {
  std::vector<LzSeq> seqs;
  common::Bytes coded;
};

DeflateScratch& deflate_scratch() {
  static thread_local DeflateScratch scratch;
  return scratch;
}

/// Length slot for (match length - kMinMatch).
inline std::uint32_t len_slot(std::uint32_t v) {
  return v == 0 ? 0 : static_cast<std::uint32_t>(std::bit_width(v));
}

}  // namespace

std::size_t DeflateLz::compress(common::ByteSpan src,
                                common::MutableByteSpan dst) const {
  if (dst.size() < max_compressed_size(src.size())) {
    throw CodecError("deflatelz: destination too small");
  }
  if (src.empty()) {
    dst[0] = kMarkerStored;
    return 1;
  }

  // MEDIUM's LZ parse, into per-thread scratch buffers.
  DeflateScratch& scratch = deflate_scratch();
  lz77_medium_sequences(src, scratch.seqs);

  // Frequencies.
  std::vector<std::uint64_t> lit_freq(kLitLenAlphabet, 0);
  std::vector<std::uint64_t> dist_freq(kDistAlphabet, 0);
  for (const LzSeq& s : scratch.seqs) {
    for (std::uint32_t i = 0; i < s.lit_len; ++i) ++lit_freq[s.lit[i]];
    if (s.length != 0) {
      ++lit_freq[256 + len_slot(s.length - kMinMatch)];
      ++dist_freq[std::bit_width(s.offset) - 1];
    }
  }
  ++lit_freq[kEob];

  const auto lit_lengths = huffman_code_lengths(lit_freq);
  const auto dist_lengths = huffman_code_lengths(dist_freq);
  const HuffmanEncoder lit_enc(lit_lengths);
  const HuffmanEncoder dist_enc(dist_lengths);

  const auto tables = {&lit_lengths, &dist_lengths};
  std::size_t present = 0;
  for (const auto* lengths : tables) {
    for (const auto l : *lengths) present += l != 0;
  }
  const bool sparse = kTableSymbols + 4 * present < 4 * kTableSymbols;

  common::Bytes& out = scratch.coded;
  out.clear();
  out.reserve(src.size() / 2);
  out.push_back(sparse ? kMarkerSparse : kMarkerCoded);
  BitWriter bw(out);
  if (sparse) {
    for (const auto* lengths : tables) {
      for (const auto l : *lengths) bw.write(l != 0, 1);
    }
  }
  for (const auto* lengths : tables) {
    for (const auto l : *lengths) {
      if (!sparse || l != 0) bw.write(l, 4);
    }
  }
  for (const LzSeq& s : scratch.seqs) {
    for (std::uint32_t i = 0; i < s.lit_len; ++i) {
      lit_enc.encode(bw, s.lit[i]);
    }
    if (s.length == 0) continue;
    const std::uint32_t v = s.length - kMinMatch;
    const std::uint32_t slot = len_slot(v);
    lit_enc.encode(bw, 256 + slot);
    if (slot > 1) bw.write(v & ((1u << (slot - 1)) - 1u), slot - 1);
    const std::uint32_t dslot =
        static_cast<std::uint32_t>(std::bit_width(s.offset));
    dist_enc.encode(bw, dslot - 1);
    if (dslot > 1) {
      bw.write(s.offset & ((1u << (dslot - 1)) - 1u), dslot - 1);
    }
  }
  lit_enc.encode(bw, kEob);
  bw.finish();

  if (out.size() >= src.size()) {
    dst[0] = kMarkerStored;
    if (!src.empty()) std::memcpy(dst.data() + 1, src.data(), src.size());
    return src.size() + 1;
  }
  std::memcpy(dst.data(), out.data(), out.size());
  return out.size();
}

std::size_t DeflateLz::decompress(common::ByteSpan src,
                                  common::MutableByteSpan dst) const {
  if (src.empty()) throw CodecError("deflatelz: empty input");
  const std::uint8_t marker = src[0];
  const common::ByteSpan body = src.subspan(1);
  if (marker == kMarkerStored) {
    if (body.size() != dst.size()) {
      throw CodecError("deflatelz: stored size mismatch");
    }
    if (!body.empty()) std::memcpy(dst.data(), body.data(), body.size());
    return dst.size();
  }
  if (marker != kMarkerCoded && marker != kMarkerSparse) {
    throw CodecError("deflatelz: bad marker");
  }

  BitReader br(body);
  std::vector<std::uint8_t> lit_lengths(kLitLenAlphabet);
  std::vector<std::uint8_t> dist_lengths(kDistAlphabet);
  const auto tables = {&lit_lengths, &dist_lengths};
  const bool sparse = marker == kMarkerSparse;
  if (sparse) {
    // The reader pads a short body with zero bits, which would read as
    // absent symbols.
    if (body.size() * 8 < kTableSymbols) {
      throw CodecError("deflatelz: truncated presence map");
    }
    for (auto* lengths : tables) {
      for (auto& l : *lengths) l = static_cast<std::uint8_t>(br.read(1));
    }
  }
  for (auto* lengths : tables) {
    for (auto& l : *lengths) {
      if (sparse && l == 0) continue;
      l = static_cast<std::uint8_t>(br.read(4));
      if (sparse && l == 0) {
        throw CodecError("deflatelz: present symbol with length 0");
      }
    }
  }
  // Literals carry no extra bits, so any symbol < 256 may lead a
  // two-symbol LUT pair; length slots and EOB may not (their extra bits /
  // loop exit sit between the codes).
  const HuffmanDecoder lit_dec(lit_lengths, /*pair_limit=*/256);
  const HuffmanDecoder dist_dec(dist_lengths);

  std::uint8_t* out = dst.data();
  std::uint8_t* const out_end = out + dst.size();
  for (;;) {
    const HuffmanDecoder::Pair pair = lit_dec.decode2(br);
    std::uint32_t sym = pair.first;
    if (pair.second >= 0) {
      // Paired probe: the first symbol is guaranteed to be a literal.
      if (out >= out_end) throw CodecError("deflatelz: output overrun");
      *out++ = static_cast<std::uint8_t>(sym);
      sym = static_cast<std::uint32_t>(pair.second);
    }
    if (sym == kEob) break;
    if (sym < 256) {
      if (out >= out_end) throw CodecError("deflatelz: output overrun");
      *out++ = static_cast<std::uint8_t>(sym);
      continue;
    }
    const std::uint32_t slot = sym - 256;
    if (slot >= kNumLenSlots) throw CodecError("deflatelz: bad length slot");
    std::uint32_t v = 0;
    if (slot == 1) {
      v = 1;
    } else if (slot > 1) {
      v = (1u << (slot - 1)) | br.read(static_cast<int>(slot) - 1);
    }
    const std::size_t len = v + kMinMatch;
    const std::uint32_t dslot = dist_dec.decode(br) + 1;
    std::uint32_t offset = 1u << (dslot - 1);
    if (dslot > 1) offset |= br.read(static_cast<int>(dslot) - 1);
    if (offset > static_cast<std::size_t>(out - dst.data())) {
      throw CodecError("deflatelz: offset before block start");
    }
    if (len > static_cast<std::size_t>(out_end - out)) {
      throw CodecError("deflatelz: match overrun");
    }
    detail::copy_match(out, offset, len, out_end);
    out += len;
  }
  if (out != out_end) throw CodecError("deflatelz: short output");
  return dst.size();
}

}  // namespace strato::compress
