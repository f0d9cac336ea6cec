// Fixture: a decoder fetching the dispatched kernel table itself instead
// of replaying through detail::copy_match, where only the match finder in
// compress/lz_common.h calls kernels() or names Kernels (this comment's
// mentions do not count).
#include "common/simd.h"

std::size_t fixture_bad_kernels(const std::uint8_t* a, const std::uint8_t* b,
                                const std::uint8_t* limit) {
  const strato::common::simd::Kernels& k = strato::common::simd::kernels ();
  using strato::common::simd::Kernels;
  return k.match_length(a, b, limit);
}
