// SIMD kernel-dispatch identity tests.
//
// The kernel layer's contract (DESIGN.md section 12) is that vectorized
// paths are an implementation detail: every ISA emits the exact scalar
// wire and decodes it back byte-for-byte. Three layers of checks:
//
//   * kernel level — match_length / hash4_bulk forced to each supported
//     ISA against the scalar table, and the one match replay every
//     decoder shares (compress::detail::copy_match) over its hazard
//     classes (distances 1..64, lengths straddling its 8/16/32-byte
//     moves, buffers ending within its 32-byte fast-path margin);
//   * wire level — verify::Oracle::check_simd_identity over corpora at
//     block sizes straddling 16/32-byte multiples, all registry levels;
//   * dispatch level — ScopedIsa forcing and restoring.
//
// The -DSTRATO_SIMD=OFF build runs this same suite with only the scalar
// table available (the ISA ladder collapses to {scalar}), and the golden
// wire vectors pin cross-build identity; check_asan.sh builds both.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "common/simd.h"
#include "compress/lz_common.h"
#include "compress/registry.h"
#include "corpus/generator.h"
#include "verify/oracle.h"

namespace strato {
namespace {

namespace simd = common::simd;

/// All ISAs this build + CPU can force, scalar first.
std::vector<simd::Isa> supported_isas() {
  std::vector<simd::Isa> out{simd::Isa::kScalar};
  for (const simd::Isa isa :
       {simd::Isa::kSse2, simd::Isa::kAvx2, simd::Isa::kNeon}) {
    simd::ScopedIsa forced(isa);
    if (forced.ok()) out.push_back(isa);
  }
  return out;
}

// --- dispatch ----------------------------------------------------------------

TEST(SimdDispatch, ScopedIsaForcesAndRestores) {
  const simd::Isa before = simd::active_isa();
  for (const simd::Isa isa : supported_isas()) {
    simd::ScopedIsa forced(isa);
    ASSERT_TRUE(forced.ok());
    EXPECT_EQ(simd::active_isa(), isa);
  }
  EXPECT_EQ(simd::active_isa(), before);
}

TEST(SimdDispatch, UnsupportedIsaLeavesDispatchUnchanged) {
#if !defined(STRATO_SIMD_NEON)
  const simd::Isa before = simd::active_isa();
  simd::ScopedIsa forced(simd::Isa::kNeon);
  EXPECT_FALSE(forced.ok());
  EXPECT_EQ(simd::active_isa(), before);
#else
  GTEST_SKIP() << "NEON build: every candidate ISA is supported";
#endif
}

// --- kernel level ------------------------------------------------------------

TEST(SimdKernels, MatchLengthAgreesWithScalarAtEveryDivergence) {
  // Two buffers diverging at a planted offset; the reported prefix must
  // be exact for offsets straddling every 16/32-byte lane boundary.
  constexpr std::size_t kN = 200;
  common::Xoshiro256 rng(0x51D0);
  common::Bytes a(kN), b(kN);
  for (const simd::Isa isa : supported_isas()) {
    simd::ScopedIsa forced(isa);
    const simd::Kernels& k = simd::kernels();
    for (std::size_t diverge = 0; diverge <= 130; ++diverge) {
      for (std::size_t i = 0; i < kN; ++i) {
        a[i] = static_cast<std::uint8_t>(rng());
        b[i] = i < diverge ? a[i] : static_cast<std::uint8_t>(a[i] + 1);
      }
      EXPECT_EQ(k.match_length(a.data(), b.data(), a.data() + kN), diverge)
          << "isa=" << simd::to_string(isa);
      // Limit before the divergence point: the limit must win.
      if (diverge >= 2) {
        const std::size_t lim = diverge - 1;
        EXPECT_EQ(k.match_length(a.data(), b.data(), a.data() + lim), lim)
            << "isa=" << simd::to_string(isa);
      }
    }
  }
}

TEST(SimdKernels, CopyMatchSweepsDistancesLengthsAndTails) {
  // The overlap hazard class: every distance 1..64 (the spread_period,
  // 8-byte and 16-byte paths), lengths straddling 8/16/32-byte
  // multiples, and buffers that end 0..33 bytes past the copy — both
  // sides of the fast/exact boundary at kWildCopyPad. The buffer is sized
  // exactly to out_end, so a write past it is an out-of-bounds store the
  // sanitizer job catches.
  common::Xoshiro256 rng(0xC0B1);
  for (std::size_t dist = 1; dist <= 64; ++dist) {
    for (const std::size_t len :
         {std::size_t{1}, std::size_t{4}, std::size_t{15}, std::size_t{16},
          std::size_t{17}, std::size_t{31}, std::size_t{32}, std::size_t{33},
          std::size_t{95}, std::size_t{259}}) {
      for (std::size_t slack = 0; slack <= 33; ++slack) {
        const std::size_t prefix = dist + rng.below(32);
        std::vector<std::uint8_t> buf(prefix + len + slack);
        for (auto& v : buf) v = static_cast<std::uint8_t>(rng());
        std::vector<std::uint8_t> ref = buf;
        for (std::size_t i = 0; i < len; ++i) {
          ref[prefix + i] = ref[prefix + i - dist];
        }
        compress::detail::copy_match(buf.data() + prefix, dist, len,
                                     buf.data() + buf.size());
        // Copied region exact; bytes past dst+len inside the slack may be
        // overwritten (the next sequence's bytes in a real decode).
        ASSERT_EQ(std::memcmp(buf.data(), ref.data(), prefix + len), 0)
            << "dist=" << dist << " len=" << len << " slack=" << slack;
      }
    }
  }
}

TEST(SimdKernels, Hash4BulkAgreesWithScalar) {
  constexpr int kHashBits = 17;
  common::Xoshiro256 rng(0x4A54);
  common::Bytes src(4 * 1024 + 37);
  for (auto& v : src) v = static_cast<std::uint8_t>(rng());
  for (const std::size_t count :
       {std::size_t{1}, std::size_t{15}, std::size_t{16}, std::size_t{17},
        std::size_t{31}, std::size_t{32}, std::size_t{33},
        std::size_t{1000}, src.size() - 3}) {
    std::vector<std::uint32_t> reference(count);
    {
      simd::ScopedIsa scalar(simd::Isa::kScalar);
      simd::kernels().hash4_bulk(src.data(), count, kHashBits,
                                 reference.data());
    }
    // The match finder hashes single positions with hash_u32 itself.
    for (std::size_t j = 0; j < count; ++j) {
      ASSERT_EQ(reference[j],
                simd::hash_u32(common::load_u32(src.data() + j), kHashBits))
          << "j=" << j;
    }
    for (const simd::Isa isa : supported_isas()) {
      simd::ScopedIsa forced(isa);
      std::vector<std::uint32_t> got(count);
      simd::kernels().hash4_bulk(src.data(), count, kHashBits, got.data());
      EXPECT_EQ(got, reference)
          << "isa=" << simd::to_string(isa) << " count=" << count;
    }
  }
}

// --- wire level --------------------------------------------------------------

TEST(SimdWire, OracleIdentityOnCorporaStraddlingLaneWidths) {
  const verify::Oracle oracle(compress::CodecRegistry::extended());
  verify::OracleReport report;
  for (const auto c :
       {corpus::Compressibility::kHigh, corpus::Compressibility::kModerate,
        corpus::Compressibility::kLow}) {
    auto gen = corpus::make_generator(c, 7);
    // Block sizes straddling 16/32-byte multiples around a 16 KiB base.
    for (const std::size_t n : {16 * 1024 - 17, 16 * 1024 - 1, 16 * 1024,
                                16 * 1024 + 1, 16 * 1024 + 31}) {
      const common::Bytes payload = corpus::take(*gen, n);
      oracle.check_simd_identity(
          payload, "corpus=" + std::to_string(static_cast<int>(c)) +
                       " n=" + std::to_string(n),
          report);
    }
  }
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_GT(report.checks, 0u);
}

TEST(SimdWire, OverlapDistanceRegressionRoundTrips) {
  // Payloads engineered so the decoder replays matches at every distance
  // 1..64, with the final run truncated at the payload end — the match
  // lands within the last bytes of the exact-size decode scratch.
  const verify::Oracle oracle(compress::CodecRegistry::extended());
  verify::OracleReport report;
  common::Xoshiro256 rng(0xD157);
  for (std::size_t dist = 1; dist <= 64; ++dist) {
    common::Bytes payload;
    for (std::size_t i = 0; i < dist; ++i) {
      payload.push_back(static_cast<std::uint8_t>(rng()));
    }
    // Long periodic body, then a tail cut mid-period so the last match
    // ends 0..dist-1 bytes from the scratch end.
    const std::size_t body = 3 * dist + 300;
    for (std::size_t i = 0; i < body; ++i) {
      payload.push_back(payload[payload.size() - dist]);
    }
    payload.resize(payload.size() - rng.below(dist));
    oracle.check_simd_identity(payload, "dist=" + std::to_string(dist),
                               report);
  }
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(SimdWire, RandomizedPayloadsAllLevels) {
  const verify::Oracle oracle(compress::CodecRegistry::extended());
  verify::OracleReport report;
  common::Xoshiro256 rng(0xF00D);
  for (int round = 0; round < 8; ++round) {
    // Mixed structure: runs, noise, self-copies — then a size nudged to
    // straddle a vector-width multiple.
    common::Bytes payload;
    const std::size_t target = 1 + rng.below(32 * 1024);
    while (payload.size() < target) {
      switch (rng.below(3)) {
        case 0:
          payload.insert(payload.end(), 1 + rng.below(200),
                         static_cast<std::uint8_t>(rng()));
          break;
        case 1: {
          const std::size_t n = 1 + rng.below(200);
          for (std::size_t i = 0; i < n; ++i) {
            payload.push_back(static_cast<std::uint8_t>(rng()));
          }
          break;
        }
        default: {
          if (payload.empty()) break;
          const std::size_t start = rng.below(payload.size());
          const std::size_t n = std::min<std::size_t>(
              1 + rng.below(400), payload.size() - start);
          for (std::size_t i = 0; i < n; ++i) {
            payload.push_back(payload[start + i]);
          }
        }
      }
    }
    payload.resize((target & ~std::size_t{31}) | rng.below(34));
    oracle.check_simd_identity(payload, "round=" + std::to_string(round),
                               report);
  }
  EXPECT_TRUE(report.ok()) << report.summary();
}

}  // namespace
}  // namespace strato
