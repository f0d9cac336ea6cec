// Codec profiling and simulator calibration.
#include <gtest/gtest.h>

#include "compress/profiler.h"
#include "compress/registry.h"
#include "vsim/codec_model.h"

namespace strato {
namespace {

TEST(Profiler, MeasuresSpeedAndRatio) {
  const auto& light = *compress::CodecRegistry::standard().level(1).codec;
  auto gen = corpus::make_generator(corpus::Compressibility::kHigh, 3);
  const auto p = compress::profile_codec(light, *gen, 2 << 20);
  EXPECT_GT(p.compress_mb_s, 1.0);
  EXPECT_GT(p.decompress_mb_s, 1.0);
  EXPECT_GT(p.ratio, 0.05);
  EXPECT_LT(p.ratio, 0.30);  // HIGH corpus through FastLz
}

TEST(Profiler, DegenerateInputs) {
  const auto& codec = *compress::CodecRegistry::standard().level(0).codec;
  auto gen = corpus::make_generator(corpus::Compressibility::kLow, 1);
  const auto zero = compress::profile_codec(codec, *gen, 0);
  EXPECT_EQ(zero.ratio, 1.0);
  const auto tiny = compress::profile_codec(codec, *gen, 100, 64);
  EXPECT_NEAR(tiny.ratio, 1.0, 1e-9);  // null codec
}

TEST(CodecModel, DefaultsAreAMonotoneLadder) {
  const auto m = vsim::CodecModel::defaults();
  for (const auto cls :
       {corpus::Compressibility::kHigh, corpus::Compressibility::kModerate,
        corpus::Compressibility::kLow}) {
    for (int l = 1; l < vsim::CodecModel::kNumLevels; ++l) {
      // Speed strictly decreases up the ladder...
      EXPECT_LT(m.get(l, cls).compress_bytes_s,
                m.get(l - 1, cls).compress_bytes_s)
          << "level " << l << " " << corpus::to_string(cls);
      // ...and ratio never gets worse (ties allowed on LOW).
      EXPECT_LE(m.get(l, cls).ratio, m.get(l - 1, cls).ratio + 0.011);
    }
  }
}

TEST(CodecModel, CalibrationTracksDefaultsOnRatio) {
  // Ratios are machine-independent; a small calibration run must land
  // close to the pinned defaults (speeds are machine-dependent and only
  // sanity-checked for ordering).
  const auto calibrated =
      vsim::CodecModel::calibrate(compress::CodecRegistry::standard(),
                                  /*bytes_per_cell=*/1 << 20);
  const auto pinned = vsim::CodecModel::defaults();
  for (const auto cls :
       {corpus::Compressibility::kHigh, corpus::Compressibility::kModerate,
        corpus::Compressibility::kLow}) {
    for (int l = 1; l < vsim::CodecModel::kNumLevels; ++l) {
      EXPECT_NEAR(calibrated.get(l, cls).ratio, pinned.get(l, cls).ratio,
                  0.05)
          << "level " << l << " " << corpus::to_string(cls);
      EXPECT_GT(calibrated.get(l, cls).compress_bytes_s, 1e6);
    }
  }
}

TEST(CodecModel, SetOverridesOneCell) {
  auto m = vsim::CodecModel::defaults();
  m.set(2, corpus::Compressibility::kLow, {1.0, 2.0, 0.5});
  EXPECT_EQ(m.get(2, corpus::Compressibility::kLow).ratio, 0.5);
  // Neighbours untouched.
  EXPECT_NE(m.get(1, corpus::Compressibility::kLow).ratio, 0.5);
}

}  // namespace
}  // namespace strato
