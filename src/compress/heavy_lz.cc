#include "compress/heavy_lz.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <memory>
#include <vector>

#include "compress/lz_common.h"
#include "compress/range_coder.h"

namespace strato::compress {
namespace {

constexpr std::size_t kMinMatch = 4;
constexpr std::size_t kMaxLen = 259;        // kMinMatch + 255 (8-bit tree)

constexpr std::uint8_t kMarkerCoded = 0;
constexpr std::uint8_t kMarkerStored = 1;

/// The per-block adaptive model set. Reset per block (self-contained).
struct Models {
  BitModel is_match[2];     // context: previous symbol was a match
  BitTree<8> literal[8];    // context: previous byte >> 5
  BitTree<8> length;        // match length - kMinMatch
  BitTree<5> dist_nbits;    // bit-width of distance, minus one
};

void encode_distance(RangeEncoder& enc, Models& m, std::uint32_t dist) {
  const int nbits = std::bit_width(dist);  // dist >= 1 -> nbits >= 1
  m.dist_nbits.encode(enc, static_cast<std::uint32_t>(nbits - 1));
  if (nbits > 1) {
    // Low bits after the implicit leading one.
    enc.encode_direct(dist & ((1u << (nbits - 1)) - 1u), nbits - 1);
  }
}

std::uint32_t decode_distance(RangeDecoder& dec, Models& m) {
  const int nbits = static_cast<int>(m.dist_nbits.decode(dec)) + 1;
  std::uint32_t dist = 1u << (nbits - 1);
  if (nbits > 1) dist |= dec.decode_direct(nbits - 1);
  return dist;
}

/// The HEAVY symbol loop: take the finder's match at i (capped at
/// kMaxLen) when there is one, else a literal, and register every
/// consumed position in the chains. The last kMinMatch - 1 positions hold
/// no 4-byte group: they are literals, never searched or inserted.
void encode_symbols(common::ByteSpan src, RangeEncoder& enc, Models& models) {
  detail::HashChainFinder<detail::kHeavyShape> finder(src);
  const std::size_t search_end =
      src.size() < kMinMatch ? 0 : src.size() - (kMinMatch - 1);
  std::size_t i = 0;
  std::uint32_t prev_byte = 0;
  std::uint32_t last_was_match = 0;
  while (i < src.size()) {
    const detail::Match m =
        i < search_end ? finder.find(i) : detail::Match{};
    if (m.len != 0) {
      const std::size_t len = std::min(m.len, kMaxLen);
      enc.encode_bit(models.is_match[last_was_match], 1);
      models.length.encode(enc, static_cast<std::uint32_t>(len - kMinMatch));
      encode_distance(enc, models, static_cast<std::uint32_t>(m.offset));
      finder.insert_range(i, i + len);
      i += len;
      prev_byte = src[i - 1];
      last_was_match = 1;
    } else {
      enc.encode_bit(models.is_match[last_was_match], 0);
      models.literal[prev_byte >> 5].encode(enc, src[i]);
      if (i < search_end) finder.insert(i);
      prev_byte = src[i];
      ++i;
      last_was_match = 0;
    }
  }
}

}  // namespace

std::size_t HeavyLz::compress(common::ByteSpan src,
                              common::MutableByteSpan dst) const {
  if (dst.size() < max_compressed_size(src.size())) {
    throw CodecError("heavylz: destination too small");
  }
  if (src.empty()) {
    dst[0] = kMarkerStored;
    return 1;
  }

  RangeEncoder enc;
  auto models = std::make_unique<Models>();
  encode_symbols(src, enc, *models);
  enc.finish();

  const common::Bytes& coded = enc.bytes();
  if (coded.size() + 1 >= src.size()) {
    // Entropy coding lost; store raw (keeps the worst-case bound tight).
    dst[0] = kMarkerStored;
    if (!src.empty()) std::memcpy(dst.data() + 1, src.data(), src.size());
    return src.size() + 1;
  }
  dst[0] = kMarkerCoded;
  std::memcpy(dst.data() + 1, coded.data(), coded.size());
  return coded.size() + 1;
}

std::size_t HeavyLz::decompress(common::ByteSpan src,
                                common::MutableByteSpan dst) const {
  if (src.empty()) throw CodecError("heavylz: empty input");
  const std::uint8_t marker = src[0];
  common::ByteSpan body = src.subspan(1);
  if (marker == kMarkerStored) {
    if (body.size() != dst.size()) {
      throw CodecError("heavylz: stored size mismatch");
    }
    if (!body.empty()) std::memcpy(dst.data(), body.data(), body.size());
    return dst.size();
  }
  if (marker != kMarkerCoded) throw CodecError("heavylz: bad marker");
  if (dst.empty()) return 0;

  RangeDecoder dec(body);
  auto models = std::make_unique<Models>();
  std::uint8_t* out = dst.data();
  std::uint8_t* const out_end = out + dst.size();
  std::uint32_t prev_byte = 0;
  std::uint32_t last_was_match = 0;

  while (out < out_end) {
    if (dec.decode_bit(models->is_match[last_was_match])) {
      const std::size_t len = models->length.decode(dec) + kMinMatch;
      const std::size_t dist = decode_distance(dec, *models);
      if (dist > static_cast<std::size_t>(out - dst.data())) {
        throw CodecError("heavylz: distance before block start");
      }
      if (len > static_cast<std::size_t>(out_end - out)) {
        throw CodecError("heavylz: match overrun");
      }
      detail::copy_match(out, dist, len, out_end);
      out += len;
      prev_byte = out[-1];
      last_was_match = 1;
    } else {
      *out = static_cast<std::uint8_t>(
          models->literal[prev_byte >> 5].decode(dec));
      prev_byte = *out;
      ++out;
      last_was_match = 0;
    }
  }
  return dst.size();
}

}  // namespace strato::compress
