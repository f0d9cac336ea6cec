// Vectorized single-core kernel layer: the ONLY file in the tree where
// CPU intrinsics and the __builtin_ctz family may appear (enforced by the
// strato-lint `simd` rule). It holds only what differs per ISA: the LZ
// match scan and bulk hashing, which the compress match finder calls
// through the dispatched `Kernels` table, so exactly one place knows
// about SSE2/AVX2/NEON. Back-reference replay is one inline copy in
// compress/lz_common.h and has no per-ISA variant.
//
// Contracts (identical across every ISA, including the scalar fallback):
//
//   * match_length(a, b, limit): length of the common prefix of [a, limit)
//     and [b, ...), b < a. Never reads at or past `limit`. Pure function —
//     all ISAs return the same value, so match choices (and therefore the
//     wire bytes) cannot depend on the dispatched level.
//   * hash4_bulk(src, count, bits, out): out[j] = hash_u32 of the 4-byte
//     group at src + j (the multiplicative LZ hash defined below, which
//     the compress match finder also calls for single positions; both
//     load the group with common::load_u32). Reads src[0 .. count + 2].
//
// Dispatch happens once, on first use: compile-time capability (this
// build's target + -DSTRATO_SIMD), runtime capability (cpuid / platform
// baseline), then the STRATO_SIMD environment override (OFF|scalar|sse2|
// avx2|neon) for A/B runs. Tests force a level in-process via force_isa().
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <string_view>

#include "common/bytes.h"

#if !defined(STRATO_SIMD_DISABLED) && (defined(__x86_64__) || defined(_M_X64))
#define STRATO_SIMD_X86 1
#include <immintrin.h>
#endif
#if !defined(STRATO_SIMD_DISABLED) && defined(__aarch64__)
#define STRATO_SIMD_NEON 1
#include <arm_neon.h>
#endif

namespace strato::common::simd {

/// Instruction-set level of a kernel table, in increasing preference.
enum class Isa : std::uint8_t { kScalar = 0, kSse2 = 1, kAvx2 = 2, kNeon = 3 };

inline const char* to_string(Isa isa) {
  switch (isa) {
    case Isa::kScalar: return "scalar";
    case Isa::kSse2: return "sse2";
    case Isa::kAvx2: return "avx2";
    case Isa::kNeon: return "neon";
  }
  return "?";
}

/// Count of trailing zero bits; v must be nonzero.
inline int ctz64(std::uint64_t v) { return __builtin_ctzll(v); }
inline int ctz32(std::uint32_t v) {
  return __builtin_ctz(v);  // strato-lint: allow(simd) — this IS simd.h
}

/// One resolved kernel set. Fetch once per block (kernels()) and call
/// through the members — the indirection is hoisted out of the hot loops.
struct Kernels {
  Isa isa;
  std::size_t (*match_length)(const std::uint8_t* a, const std::uint8_t* b,
                              const std::uint8_t* limit);
  void (*hash4_bulk)(const std::uint8_t* src, std::size_t count, int bits,
                     std::uint32_t* out);
};

/// The multiplicative LZ hash of a 4-byte group into `bits` bits: the
/// one definition, called by the compress match finder for single
/// positions and by every hash4_bulk kernel for runs of them.
inline constexpr std::uint32_t kLzHashMul = 2654435761u;
inline std::uint32_t hash_u32(std::uint32_t v, int bits) {
  return (v * kLzHashMul) >> (32 - bits);
}

namespace detail {

// ---------------------------------------------------------------------
// Scalar reference kernels (the semantics every vector path must match).
// ---------------------------------------------------------------------

inline std::size_t scalar_match_length(const std::uint8_t* a,
                                       const std::uint8_t* b,
                                       const std::uint8_t* limit) {
  const std::uint8_t* start = a;
  while (a + 8 <= limit) {
    const std::uint64_t diff = common::load_u64(a) ^ common::load_u64(b);
    if (diff != 0) {
      return static_cast<std::size_t>(a - start) +
             static_cast<std::size_t>(ctz64(diff) >> 3);
    }
    a += 8;
    b += 8;
  }
  while (a < limit && *a == *b) {
    ++a;
    ++b;
  }
  return static_cast<std::size_t>(a - start);
}

inline void scalar_hash4_bulk(const std::uint8_t* src, std::size_t count,
                              int bits, std::uint32_t* out) {
  for (std::size_t j = 0; j < count; ++j) {
    out[j] = hash_u32(common::load_u32(src + j), bits);
  }
}

inline constexpr Kernels kScalarKernels{Isa::kScalar, scalar_match_length,
                                        scalar_hash4_bulk};

// ---------------------------------------------------------------------
// x86: SSE2 baseline + AVX2 (runtime-detected, target-attributed so the
// rest of the TU stays at the build's baseline ISA).
// ---------------------------------------------------------------------
#if STRATO_SIMD_X86

inline std::size_t sse2_match_length(const std::uint8_t* a,
                                     const std::uint8_t* b,
                                     const std::uint8_t* limit) {
  const std::uint8_t* start = a;
  while (a + 16 <= limit) {
    const __m128i va = _mm_loadu_si128(reinterpret_cast<const __m128i*>(a));
    const __m128i vb = _mm_loadu_si128(reinterpret_cast<const __m128i*>(b));
    const std::uint32_t eq = static_cast<std::uint32_t>(
        _mm_movemask_epi8(_mm_cmpeq_epi8(va, vb)));
    if (eq != 0xFFFFu) {
      return static_cast<std::size_t>(a - start) +
             static_cast<std::size_t>(ctz32(~eq & 0xFFFFu));
    }
    a += 16;
    b += 16;
  }
  return static_cast<std::size_t>(a - start) + scalar_match_length(a, b, limit);
}

inline constexpr Kernels kSse2Kernels{Isa::kSse2, sse2_match_length,
                                      scalar_hash4_bulk};

__attribute__((target("avx2"))) inline std::size_t avx2_match_length(
    const std::uint8_t* a, const std::uint8_t* b, const std::uint8_t* limit) {
  const std::uint8_t* start = a;
  while (a + 32 <= limit) {
    const __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a));
    const __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b));
    const std::uint32_t eq = static_cast<std::uint32_t>(
        _mm256_movemask_epi8(_mm256_cmpeq_epi8(va, vb)));
    if (eq != 0xFFFFFFFFu) {
      return static_cast<std::size_t>(a - start) +
             static_cast<std::size_t>(ctz32(~eq));
    }
    a += 32;
    b += 32;
  }
  return static_cast<std::size_t>(a - start) + sse2_match_length(a, b, limit);
}

/// 4 consecutive 4-byte windows per step: one 16-byte load covers bytes
/// [j, j+7); an SSSE3 shuffle fans them out into the lanes {j..j+3},
/// {j+1..j+4}, {j+2..j+5}, {j+3..j+6}, then a SIMD multiply + shift
/// applies the multiplicative hash to all four at once. (AVX2 implies
/// SSSE3/SSE4.1, so the 128-bit ops are safe inside this target.)
__attribute__((target("avx2"))) inline void avx2_hash4_bulk(
    const std::uint8_t* src, std::size_t count, int bits,
    std::uint32_t* out) {
  const __m128i mul = _mm_set1_epi32(static_cast<int>(kLzHashMul));
  const __m128i fan = _mm_setr_epi8(0, 1, 2, 3, 1, 2, 3, 4,  //
                                    2, 3, 4, 5, 3, 4, 5, 6);
  const int shift = 32 - bits;
  std::size_t j = 0;
  // Each step's 8-byte load reads src[j .. j+7]; stopping at j + 5 <= count
  // keeps the furthest read at src[count+2], the same bound the scalar
  // tail needs (position count-1 reads src[count+2]).
  for (; j + 5 <= count; j += 4) {
    const __m128i raw =
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(src + j));
    const __m128i windows = _mm_shuffle_epi8(raw, fan);
    const __m128i hashed =
        _mm_srli_epi32(_mm_mullo_epi32(windows, mul), shift);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + j), hashed);
  }
  for (; j < count; ++j) out[j] = hash_u32(common::load_u32(src + j), bits);
}

inline constexpr Kernels kAvx2Kernels{Isa::kAvx2, avx2_match_length,
                                      avx2_hash4_bulk};
#endif  // STRATO_SIMD_X86

// ---------------------------------------------------------------------
// aarch64 NEON (baseline on that platform, no runtime probe needed).
// ---------------------------------------------------------------------
#if STRATO_SIMD_NEON

inline std::size_t neon_match_length(const std::uint8_t* a,
                                     const std::uint8_t* b,
                                     const std::uint8_t* limit) {
  const std::uint8_t* start = a;
  while (a + 16 <= limit) {
    const uint8x16_t va = vld1q_u8(a);
    const uint8x16_t vb = vld1q_u8(b);
    const uint8x16_t ne = veorq_u8(va, vb);
    // Narrow the 128-bit compare to 64 bits (4 bits per byte lane), then
    // ctz picks the first differing byte.
    const std::uint64_t mask = vget_lane_u64(
        vreinterpret_u64_u8(vshrn_n_u16(vreinterpretq_u16_u8(ne), 4)), 0);
    if (mask != 0) {
      return static_cast<std::size_t>(a - start) +
             static_cast<std::size_t>(ctz64(mask) >> 2);
    }
    a += 16;
    b += 16;
  }
  return static_cast<std::size_t>(a - start) + scalar_match_length(a, b, limit);
}

inline constexpr Kernels kNeonKernels{Isa::kNeon, neon_match_length,
                                      scalar_hash4_bulk};
#endif  // STRATO_SIMD_NEON

/// Best kernel table this build + CPU supports.
inline const Kernels& best_supported() {
#if STRATO_SIMD_X86
  if (__builtin_cpu_supports("avx2")) return kAvx2Kernels;
  return kSse2Kernels;
#elif STRATO_SIMD_NEON
  return kNeonKernels;
#else
  return kScalarKernels;
#endif
}

/// Table for an explicitly requested level; nullptr when this build/CPU
/// cannot honor it.
inline const Kernels* table_for(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return &kScalarKernels;
    case Isa::kSse2:
#if STRATO_SIMD_X86
      return &kSse2Kernels;
#else
      return nullptr;
#endif
    case Isa::kAvx2:
#if STRATO_SIMD_X86
      return __builtin_cpu_supports("avx2") ? &kAvx2Kernels : nullptr;
#else
      return nullptr;
#endif
    case Isa::kNeon:
#if STRATO_SIMD_NEON
      return &kNeonKernels;
#else
      return nullptr;
#endif
  }
  return nullptr;
}

/// One-time initial dispatch: capability, then the STRATO_SIMD env
/// override (OFF and scalar force the fallback; sse2/avx2/neon request a
/// specific level and fall back to the best supported when unavailable).
inline const Kernels& initial_dispatch() {
  const char* env = std::getenv("STRATO_SIMD");
  if (env != nullptr && *env != '\0') {
    const std::string_view v(env);
    if (v == "OFF" || v == "off" || v == "0" || v == "scalar") {
      return kScalarKernels;
    }
    const Kernels* forced = nullptr;
    if (v == "sse2") forced = table_for(Isa::kSse2);
    if (v == "avx2") forced = table_for(Isa::kAvx2);
    if (v == "neon") forced = table_for(Isa::kNeon);
    if (forced != nullptr) return *forced;
  }
  return best_supported();
}

inline std::atomic<const Kernels*>& active_table() {
  static std::atomic<const Kernels*> table{&initial_dispatch()};
  return table;
}

}  // namespace detail

/// The dispatched kernel table. Cache the reference at block scope; the
/// table never changes mid-run outside of test force_isa() calls.
inline const Kernels& kernels() {
  return *detail::active_table().load(std::memory_order_relaxed);
}

/// Best ISA this build + CPU can run (ignores env override / forcing).
inline Isa detected_isa() { return detail::best_supported().isa; }

/// Currently active ISA.
inline Isa active_isa() { return kernels().isa; }

/// Test hook: force a specific kernel table (e.g. scalar-vs-simd identity
/// checks in one process). Returns false, leaving the dispatch unchanged,
/// when this build/CPU cannot run `isa`. Not intended for concurrent use
/// with in-flight compression.
inline bool force_isa(Isa isa) {
  const Kernels* t = detail::table_for(isa);
  if (t == nullptr) return false;
  detail::active_table().store(t, std::memory_order_relaxed);
  return true;
}

/// RAII forcing for tests: restores the previously active table.
class ScopedIsa {
 public:
  explicit ScopedIsa(Isa isa)
      : prev_(&kernels()), ok_(force_isa(isa)) {}
  ~ScopedIsa() { detail::active_table().store(prev_, std::memory_order_relaxed); }
  ScopedIsa(const ScopedIsa&) = delete;
  ScopedIsa& operator=(const ScopedIsa&) = delete;
  /// False when the requested ISA is unsupported (table left unchanged).
  [[nodiscard]] bool ok() const { return ok_; }

 private:
  const Kernels* prev_;
  bool ok_;
};

}  // namespace strato::common::simd
