// The LZ match finder and match replay (internal to the compress module).
//
// LIGHT, MEDIUM and HEAVY search with one hash-chain finder,
// HashChainFinder<Shape>, whose compile-time shape is the rung's whole
// search effort: hash bits, chain depth, nice length, maximum distance
// and the tail a match may never cover. The head/prev chain arrays live
// in a per-thread scratch the finder fetches itself: allocating them per
// 128 KB block used to cost a 64-512 KB allocation plus fresh-page faults
// per block; with the scratch each compression thread (the caller, or
// each parallel-pipeline worker) touches the same warm memory block after
// block. The hash and the common-prefix scan live in common/simd.h
// (simd::hash_u32, simd::kernels().match_length) so the bulk hash and
// the scan can use the widest instructions the host supports; the finder
// is the one caller of simd::kernels() (the `kernels` lint rule).
//
// The LZ77, HEAVY and DEFLATE decoders replay every back-reference
// through copy_match below: fixed-size moves that never read a byte they
// write, and an exact copy near the end of the output.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/bytes.h"
#include "common/simd.h"

namespace strato::compress::detail {

inline constexpr std::uint32_t kLzNoPos = 0xFFFFFFFFu;

/// A rung's search effort, fixed at compile time.
struct LzShape {
  int hash_bits;
  /// Chain candidates walked per search; 0 = one probe and no prev chain.
  int chain_depth;
  /// Stop walking once a match reaches this length (the serial
  /// prev-pointer chase is the dominant search cost, and such a match is
  /// almost never displaced further down the chain).
  std::size_t nice_len;
  std::size_t max_dist;
  /// Bytes at the end of the block no match may cover.
  std::size_t tail;
};

// The rungs. LIGHT and MEDIUM write LZ4 offsets (16 bits) and keep the
// format's 5 trailing literals; HEAVY's range-coded distances reach 24
// bits.
inline constexpr LzShape kLightShape{14, 0, 64, 65535, 5};
inline constexpr LzShape kMediumShape{16, 8, 64, 65535, 5};
inline constexpr LzShape kHeavyShape{17, 96, 96, (1u << 24) - 1, 0};

struct Match {
  std::size_t len = 0;
  std::size_t offset = 0;
};

/// Reused head/prev arrays for the finder. prepare() clears only the head
/// table; stale prev entries are unreachable because chains start at head
/// and every position linked since prepare() wrote its own prev slot
/// before becoming reachable.
struct MatchScratch {
  std::vector<std::uint32_t> head;
  std::vector<std::uint32_t> prev;
  /// Staging buffer for simd::Kernels::hash4_bulk (pre-warm and in-match
  /// insertion runs hash all their positions in one pass, then do the
  /// chain-pointer updates serially).
  std::vector<std::uint32_t> hash_tmp;

  /// Size + clear head for a 2^hash_bits table; ensure prev covers n
  /// positions (pass n = 0 for single-probe finders that keep no chains).
  void prepare(int hash_bits, std::size_t n) {
    head.assign(std::size_t{1} << hash_bits, kLzNoPos);
    if (prev.size() < n) prev.resize(n);
  }
};

/// Per-thread scratch: pipeline workers each get their own, so parallel
/// block compression shares nothing through the match finder.
inline MatchScratch& match_scratch() {
  static thread_local MatchScratch scratch;
  return scratch;
}

/// Hash-chain match finder over one block. Compressing a block allocates
/// nothing: the chains live in the calling thread's MatchScratch.
template <LzShape S>
class HashChainFinder {
  static constexpr bool kChained = S.chain_depth > 0;

 public:
  explicit HashChainFinder(common::ByteSpan src)
      : src_(src.data()),
        n_(src.size()),
        scratch_(match_scratch()),
        kernels_(common::simd::kernels()) {
    scratch_.prepare(S.hash_bits, kChained ? n_ : 0);
  }

  /// A finder over `src` that searches and extends `kept` as it stands,
  /// a head table indexing positions of `src` (LightWindowHeads).
  HashChainFinder(common::ByteSpan src, MatchScratch& kept)
      : src_(src.data()),
        n_(src.size()),
        scratch_(kept),
        kernels_(common::simd::kernels()) {
    static_assert(!kChained, "a kept table holds heads, not chains");
  }

  /// Best match at i among the inserted positions, len 0 if none.
  /// Requires i + 4 + S.tail <= n, so a candidate that passes the 4-byte
  /// check is a match of at least 4 bytes.
  Match find(std::size_t i) const {
    const std::uint32_t cur = common::load_u32(src_ + i);
    const std::uint8_t* const limit = src_ + n_ - S.tail;
    std::uint32_t cand = scratch_.head[hash(cur)];
    Match best;
    for (int depth = std::max(1, S.chain_depth);
         cand != kLzNoPos && depth > 0; --depth) {
      const std::size_t c = cand;
      if (i - c > S.max_dist) break;
      // A candidate can only beat `best` if it extends past best.len, so
      // one byte there rejects most of the chain without a full scan
      // (exact: a mismatch at best.len caps the prefix at best.len).
      // best.len stays below limit - (src_ + i), so the probe is
      // in-bounds.
      if (src_[c + best.len] == src_[i + best.len] &&
          common::load_u32(src_ + c) == cur) {
        const std::size_t len =
            kernels_.match_length(src_ + i, src_ + c, limit);
        if (len > best.len) {
          best = {len, i - c};
          // Long enough, or reaching the limit: no candidate can win.
          if (len >= S.nice_len || src_ + i + len == limit) break;
        }
      }
      if (!kChained) break;
      cand = scratch_.prev[c];
    }
    return best;
  }

  /// Register position i (i + 4 <= n) in the hash structures.
  void insert(std::size_t i) {
    const std::uint32_t h = hash(common::load_u32(src_ + i));
    if (kChained) scratch_.prev[i] = scratch_.head[h];
    scratch_.head[h] = static_cast<std::uint32_t>(i);
  }

  /// insert() for every position in [begin, end) that has 4 bytes left
  /// in the block: hash the whole run in one bulk-kernel pass, then do
  /// the (serial by nature) chain-pointer updates.
  void insert_range(std::size_t begin, std::size_t end) {
    end = std::min(end, n_ < 3 ? 0 : n_ - 3);
    if (end <= begin) return;
    const std::size_t count = end - begin;
    if (count < 16) {
      // Bulk staging doesn't pay for itself on short runs.
      for (std::size_t j = begin; j < end; ++j) insert(j);
      return;
    }
    auto& tmp = scratch_.hash_tmp;
    if (tmp.size() < count) tmp.resize(count);
    kernels_.hash4_bulk(src_ + begin, count, S.hash_bits, tmp.data());
    for (std::size_t j = 0; j < count; ++j) {
      // The staged hashes make the head-table access pattern visible a
      // few iterations ahead; prefetching hides the (random-index)
      // table line fetch behind the serial chain updates.
      if (j + 8 < count) __builtin_prefetch(&scratch_.head[tmp[j + 8]]);
      const std::uint32_t h = tmp[j];
      if (kChained) scratch_.prev[begin + j] = scratch_.head[h];
      scratch_.head[h] = static_cast<std::uint32_t>(begin + j);
    }
  }

 private:
  static std::uint32_t hash(std::uint32_t v) {
    return common::simd::hash_u32(v, S.hash_bits);
  }

  const std::uint8_t* src_;
  std::size_t n_;
  MatchScratch& scratch_;
  const common::simd::Kernels& kernels_;
};

/// LIGHT's head table over a rolling window, kept across calls by the
/// streaming encoder so that each block hashes only its own positions
/// instead of the whole window. Before every parse it must equal what
/// insert_range(0, h) builds in a fresh table: for each hash, the last
/// window position with that hash among those whose 4 bytes are in the
/// buffer. extend() inserts positions in order once their 4 bytes exist,
/// so the window's last 3 wait for the next block; extending past a parse
/// re-inserts the block's positions in order, which overrides the parse's
/// own partial inserts; trim() follows the buffer when it drops its
/// oldest bytes.
class LightWindowHeads {
 public:
  LightWindowHeads() { reset(); }

  /// Forget every position.
  void reset() {
    scratch_.prepare(kLightShape.hash_bits, 0);
    inserted_ = 0;
  }

  /// Insert, in order, each position of `buffer` from the first one not
  /// yet inserted up to `end` that has 4 bytes in `buffer`.
  void extend(common::ByteSpan buffer, std::size_t end) {
    end = std::min(end, buffer.size() < 3 ? 0 : buffer.size() - 3);
    if (end <= inserted_) return;
    finder(buffer).insert_range(inserted_, end);
    inserted_ = end;
  }

  /// The buffer dropped its first `d` bytes: entry e becomes e - d, and
  /// entries below d index nothing.
  void trim(std::size_t d) {
    if (d == 0) return;
    const auto d32 = static_cast<std::uint32_t>(d);
    std::uint32_t* const head = scratch_.head.data();
    // A branch-free body over a fixed count, so the loop vectorizes.
    for (std::size_t k = 0; k < kHeads; ++k) {
      const std::uint32_t e = head[k];
      head[k] = e >= d32 && e != kLzNoPos ? e - d32 : kLzNoPos;
    }
    inserted_ = inserted_ > d ? inserted_ - d : 0;
  }

  /// A finder over `buffer` that searches this table.
  HashChainFinder<kLightShape> finder(common::ByteSpan buffer) {
    return HashChainFinder<kLightShape>(buffer, scratch_);
  }

 private:
  static constexpr std::size_t kHeads = std::size_t{1}
                                        << kLightShape.hash_bits;

  MatchScratch scratch_;      // head only: LIGHT keeps no prev chain
  std::size_t inserted_ = 0;  // positions [0, inserted_) are in the table
};

/// copy_match's fixed-size moves run up to 31 bytes past a match's end,
/// so it takes them only when this many bytes of output remain past it.
inline constexpr std::size_t kWildCopyPad = 32;

/// The byte-serial semantics of a match, dst[i] = dst[i - dist] for i in
/// [0, len): 8-byte moves at dist >= 8, a byte loop below.
inline void exact_copy_match(std::uint8_t* dst, std::size_t dist,
                             std::size_t len) {
  const std::uint8_t* src = dst - dist;
  if (dist >= 8) {
    std::size_t i = 0;
    for (; i + 8 <= len; i += 8) std::memcpy(dst + i, src + i, 8);
    for (; i < len; ++i) dst[i] = src[i];
  } else {
    for (std::size_t i = 0; i < len; ++i) dst[i] = src[i];
  }
}

/// For a match at distance dist in [1, 8), after LZ4's increment/decrement
/// tables: writes exactly dst[0, 8) with the byte-serial semantics (four
/// byte moves, then one 4-byte move from kBack4[dist] bytes back, a
/// multiple of dist of at least 4) and returns a widened distance D, a
/// multiple of dist of at least 8, so the rest of the match streams in
/// overlap-free 8-byte moves from dst + 8 - D. No loop: the work is the
/// same for every dist.
inline std::size_t spread_period(std::uint8_t* dst, std::size_t dist) {
  static constexpr std::uint8_t kBack4[8] = {0, 4, 4, 6, 4, 5, 6, 7};
  static constexpr std::uint8_t kWide8[8] = {0, 8, 8, 9, 8, 10, 12, 14};
  const std::uint8_t* src = dst - dist;
  dst[0] = src[0];
  dst[1] = src[1];
  dst[2] = src[2];
  dst[3] = src[3];
  std::memcpy(dst + 4, dst + 4 - kBack4[dist], 4);
  return kWide8[dist];
}

/// Replay a back-reference of `len` bytes at distance `dist` >= 1 (the
/// caller has checked both against the buffer). With len + kWildCopyPad
/// bytes of output left it moves fixed-size blocks that never read a byte
/// they write: two 16-byte moves per step at dist >= 16, 8-byte moves at
/// 8-15, and spread_period first below 8. The bytes it writes past
/// dst + len are overwritten by whatever the decoder writes next. Nearer
/// out_end it is exact_copy_match, so exact-size buffers need no padding
/// and nothing is written at or past out_end. One if/else with the
/// dist >= 16 loop first keeps that loop, which most matches take, on
/// GCC's fall-through path; written with early returns it became a jump
/// target and HIGH/LIGHT decode measured 0.88x.
inline void copy_match(std::uint8_t* dst, std::size_t dist, std::size_t len,
                       const std::uint8_t* out_end) {
  std::uint8_t* const end = dst + len;
  if (len + kWildCopyPad <= static_cast<std::size_t>(out_end - dst)) {
    if (dist >= 16) {
      const std::uint8_t* from = dst - dist;
      do {
        std::memcpy(dst, from, 16);
        std::memcpy(dst + 16, from + 16, 16);
        dst += 32;
        from += 32;
      } while (dst < end);
    } else {
      if (dist < 8) {
        dist = spread_period(dst, dist);
        dst += 8;
      }
      while (dst < end) {
        std::memcpy(dst, dst - dist, 8);
        dst += 8;
      }
    }
  } else {
    exact_copy_match(dst, dist, len);
  }
}

}  // namespace strato::compress::detail
