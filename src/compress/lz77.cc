#include "compress/lz77.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "compress/lz_common.h"

namespace strato::compress {
namespace {

constexpr std::size_t kMinMatch = 4;
// Match search stops kMatchGuard before the end of a block, and no match
// covers the shape's tail (the 5 bytes every block ends in as literals).
constexpr std::size_t kMatchGuard = 12;
// LIGHT's skip acceleration: after 2^kSkipShift straight misses the parse
// steps 2 bytes, then 3, and so on through incompressible regions.
constexpr int kSkipShift = 6;
// Literal runs move in fixed-size copies of kFastLiteralCopy bytes where
// both buffers have the bytes past the run: in the encoder any run whose
// source has them, in the decoder a token count below 15 (one copy) with
// that many bytes of input and of output left after the token. Every
// other run is one exact memcpy.
constexpr std::size_t kFastLiteralCopy = 16;

/// Byte sink: LZ4-style token emission. The destination always has room
/// for the 15 bytes a literal copy may write past its run, because
/// lz77_max_compressed_size over-allocates by 32 bytes past the format's
/// worst case.
class SeqWriter {
 public:
  SeqWriter(common::MutableByteSpan dst, const std::uint8_t* src_end)
      : dst_(dst), src_end_(src_end) {}

  /// Emit one sequence: literals [lit, lit+lit_len) followed by a match of
  /// `match_len` (0 = final literal-only sequence) at distance `offset`.
  void emit(const std::uint8_t* lit, std::size_t lit_len,
            std::size_t match_len, std::size_t offset) {
    const std::size_t ml_code = match_len == 0 ? 0 : match_len - kMinMatch;
    std::uint8_t token =
        static_cast<std::uint8_t>(std::min<std::size_t>(lit_len, 15) << 4);
    token |= static_cast<std::uint8_t>(std::min<std::size_t>(ml_code, 15));
    put(token);
    if (lit_len >= 15) put_ext(lit_len - 15);
    if (lit_len != 0) {
      std::uint8_t* d = dst_.data() + pos_;
      if (lit + lit_len + kFastLiteralCopy <= src_end_) {
        std::size_t i = 0;
        do {
          std::memcpy(d + i, lit + i, kFastLiteralCopy);
          i += kFastLiteralCopy;
        } while (i < lit_len);
      } else {
        std::memcpy(d, lit, lit_len);
      }
      pos_ += lit_len;
    }
    if (match_len == 0) return;
    common::store_le16(dst_.data() + pos_, static_cast<std::uint16_t>(offset));
    pos_ += 2;
    if (ml_code >= 15) put_ext(ml_code - 15);
  }

  [[nodiscard]] std::size_t written() const { return pos_; }

 private:
  void put(std::uint8_t b) { dst_[pos_++] = b; }
  void put_ext(std::size_t rem) {
    while (rem >= 255) {
      put(255);
      rem -= 255;
    }
    put(static_cast<std::uint8_t>(rem));
  }

  common::MutableByteSpan dst_;
  const std::uint8_t* src_end_;
  std::size_t pos_ = 0;
};

/// Sequence sink: the parse as LzSeq records (DEFLATE's LZ stage).
struct SeqList {
  std::vector<LzSeq>& seqs;
  void emit(const std::uint8_t* lit, std::size_t lit_len,
            std::size_t match_len, std::size_t offset) {
    seqs.push_back({lit, static_cast<std::uint32_t>(lit_len),
                    static_cast<std::uint32_t>(match_len),
                    static_cast<std::uint32_t>(offset)});
  }
};

/// Whether buffer[h..] of an n-byte buffer is long enough to search at
/// rung S; a shorter run goes out as literals.
template <detail::LzShape S>
constexpr bool searchable(std::size_t n, std::size_t h) {
  return n - h >= kMatchGuard + S.tail;
}

/// The LZ77 parse of buffer[h..] at rung S into `out`, searching through
/// `finder`, which holds the positions before h that matches may reach
/// (searchable<S>(buffer.size(), h) must hold). Both rungs parse greedily,
/// taking the match find(i) returns. A chained rung (MEDIUM) registers
/// every position inside a match; a single-probe rung (LIGHT) accelerates
/// through literal runs and registers one position per match.
template <detail::LzShape S, class Sink>
void parse(detail::HashChainFinder<S>& finder, common::ByteSpan buffer,
           std::size_t h, Sink& out) {
  constexpr bool kChained = S.chain_depth > 0;
  static_assert(kMatchGuard >= 4 + S.tail, "find(i) needs i + 4 + tail <= n");
  const std::size_t n = buffer.size();
  const std::uint8_t* const src = buffer.data();
  const std::size_t search_end = n - kMatchGuard;
  std::size_t anchor = h;
  std::size_t i = h;
  std::size_t misses = 0;

  while (i < search_end) {
    detail::Match m = finder.find(i);
    finder.insert(i);
    if (m.len == 0) {
      // Skip acceleration: advance faster the longer we fail to match.
      ++misses;
      i += 1 + (kChained ? 0 : misses >> kSkipShift);
      continue;
    }
    misses = 0;
    // Extend the match backward over pending literals.
    while (i > anchor && m.offset < i && src[i - 1] == src[i - 1 - m.offset]) {
      --i;
      ++m.len;
    }
    out.emit(src + anchor, i - anchor, m.len, m.offset);
    // Register positions inside the match so later data can match into
    // it (one position on the single-probe rung keeps it fast).
    const std::size_t match_end = std::min(i + m.len, search_end);
    if (kChained) {
      finder.insert_range(i + 1, match_end);
    } else if (i + 2 < match_end) {
      finder.insert(i + 2);
    }
    i += m.len;
    anchor = i;
  }
  out.emit(src + anchor, n - anchor, 0, 0);
}

/// The parse of one self-contained block.
template <detail::LzShape S, class Sink>
void parse_block(common::ByteSpan src, Sink& out) {
  if (!searchable<S>(src.size(), 0)) {
    out.emit(src.data(), src.size(), 0, 0);
    return;
  }
  detail::HashChainFinder<S> finder(src);
  parse(finder, src, 0, out);
}

template <detail::LzShape S>
std::size_t compress_at(common::ByteSpan src, common::MutableByteSpan dst) {
  SeqWriter out(dst, src.data() + src.size());
  parse_block<S>(src, out);
  return out.written();
}

}  // namespace

std::size_t lz77_compress(common::ByteSpan src, common::MutableByteSpan dst,
                          LzEffort effort) {
  return effort == LzEffort::kLight
             ? compress_at<detail::kLightShape>(src, dst)
             : compress_at<detail::kMediumShape>(src, dst);
}

std::size_t lz77_compress_with_history(common::ByteSpan buffer,
                                       std::size_t history_len,
                                       common::MutableByteSpan dst,
                                       detail::LightWindowHeads& heads) {
  const std::size_t n = buffer.size();
  const std::size_t h = std::min(history_len, n);
  SeqWriter out(dst, buffer.data() + n);
  // The window's last positions gained their 4th byte with this block.
  heads.extend(buffer, h);
  if (searchable<detail::kLightShape>(n, h)) {
    auto finder = heads.finder(buffer);
    parse(finder, buffer, h, out);
  } else {
    out.emit(buffer.data() + h, n - h, 0, 0);
  }
  // The parse inserted some of the block's positions; inserting them all,
  // in order, leaves the table as inserting the whole buffer would.
  heads.extend(buffer, n);
  return out.written();
}

void lz77_medium_sequences(common::ByteSpan src, std::vector<LzSeq>& seqs) {
  seqs.clear();
  SeqList out{seqs};
  parse_block<detail::kMediumShape>(src, out);
}

std::size_t lz77_decompress(common::ByteSpan src,
                            common::MutableByteSpan dst) {
  return lz77_decompress_with_history(src, dst, 0, dst.size());
}

std::size_t lz77_decompress_with_history(common::ByteSpan src,
                                         common::MutableByteSpan buffer,
                                         std::size_t history_len,
                                         std::size_t raw_size) {
  if (history_len + raw_size > buffer.size()) {
    throw CodecError("lz77: history buffer too small");
  }
  const std::uint8_t* in = src.data();
  const std::uint8_t* in_end = in + src.size();
  std::uint8_t* const base = buffer.data();
  std::uint8_t* out = base + history_len;
  std::uint8_t* out_end = out + raw_size;

  auto read_ext = [&](std::size_t base) -> std::size_t {
    std::size_t v = base;
    std::uint8_t b;
    do {
      if (in >= in_end) throw CodecError("lz77: truncated length");
      b = *in++;
      v += b;
    } while (b == 255);
    return v;
  };

  if (src.empty()) {
    if (raw_size != 0) throw CodecError("lz77: empty input, nonempty output");
    return 0;
  }

  for (;;) {
    if (in >= in_end) throw CodecError("lz77: truncated block");
    const std::uint8_t token = *in++;
    std::size_t lit_len = token >> 4;
    if (lit_len < 15 &&
        static_cast<std::size_t>(in_end - in) >= kFastLiteralCopy &&
        static_cast<std::size_t>(out_end - out) >= kFastLiteralCopy) {
      // Fast path: up to 14 literals move as one fixed-size copy; the
      // bytes past out + lit_len are overwritten by the sequences that
      // follow. At least 2 input bytes remain after the literals, so
      // this is not the final sequence and its offset is present.
      std::memcpy(out, in, kFastLiteralCopy);
      in += lit_len;
      out += lit_len;
    } else {
      if (lit_len == 15) lit_len = read_ext(15);
      if (lit_len > static_cast<std::size_t>(in_end - in) ||
          lit_len > static_cast<std::size_t>(out_end - out)) {
        throw CodecError("lz77: literal overrun");
      }
      if (lit_len != 0) {
        std::memcpy(out, in, lit_len);
        in += lit_len;
        out += lit_len;
      }
      if (in == in_end) break;  // final literal-only sequence
      if (in + 2 > in_end) throw CodecError("lz77: truncated offset");
    }

    const std::size_t offset = common::load_le16(in);
    in += 2;
    if (offset == 0) throw CodecError("lz77: zero offset");
    std::size_t match_len = (token & 15) + kMinMatch;
    if ((token & 15) == 15) match_len = read_ext(15 + kMinMatch);
    if (offset > static_cast<std::size_t>(out - base)) {
      throw CodecError("lz77: offset before window start");
    }
    if (match_len > static_cast<std::size_t>(out_end - out)) {
      throw CodecError("lz77: match overrun");
    }
    detail::copy_match(out, offset, match_len, out_end);
    out += match_len;
  }
  if (out != out_end) throw CodecError("lz77: short output");
  return raw_size;
}

std::size_t FastLz::compress(common::ByteSpan src,
                             common::MutableByteSpan dst) const {
  return lz77_compress(src, dst, LzEffort::kLight);
}

std::size_t FastLz::decompress(common::ByteSpan src,
                               common::MutableByteSpan dst) const {
  return lz77_decompress(src, dst);
}

std::size_t MediumLz::compress(common::ByteSpan src,
                               common::MutableByteSpan dst) const {
  return lz77_compress(src, dst, LzEffort::kMedium);
}

std::size_t MediumLz::decompress(common::ByteSpan src,
                                 common::MutableByteSpan dst) const {
  return lz77_decompress(src, dst);
}

}  // namespace strato::compress
