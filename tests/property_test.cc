// Cross-cutting property tests: differential codec checks, adversarial
// inputs, and controller trace invariants.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "compress/framing.h"
#include "compress/registry.h"
#include "compress/streaming.h"
#include "core/controller.h"
#include "corpus/generator.h"
#include "verify/seed.h"

namespace strato {
namespace {

/// Seed for one parameterized case: the suite's Range index XORed with an
/// env-overridable base, so `STRATO_PROPERTY_SEED=N ctest -R property`
/// replays (or re-randomizes) every case. Announced once per process.
std::uint64_t property_seed(std::uint64_t param) {
  static const std::uint64_t base = verify::announce_seed(
      "STRATO_PROPERTY_SEED", verify::seed_from_env("STRATO_PROPERTY_SEED", 0));
  return base ^ param;
}

/// Adversarial byte-string generator: runs, copies, noise, structure.
common::Bytes adversarial(common::Xoshiro256& rng, std::size_t target) {
  common::Bytes data;
  while (data.size() < target) {
    switch (rng.below(5)) {
      case 0:
        data.insert(data.end(), 1 + rng.below(900),
                    static_cast<std::uint8_t>(rng()));
        break;
      case 1: {
        const std::size_t n = 1 + rng.below(400);
        for (std::size_t i = 0; i < n; ++i) {
          data.push_back(static_cast<std::uint8_t>(rng()));
        }
        break;
      }
      case 2: {
        if (data.empty()) break;
        const std::size_t start = rng.below(data.size());
        const std::size_t n =
            std::min<std::size_t>(1 + rng.below(1200), data.size() - start);
        for (std::size_t i = 0; i < n; ++i) data.push_back(data[start + i]);
        break;
      }
      case 3: {  // ascending ramp (no repeats, byte-wise structure)
        const std::size_t n = 1 + rng.below(300);
        for (std::size_t i = 0; i < n; ++i) {
          data.push_back(static_cast<std::uint8_t>(i));
        }
        break;
      }
      default:
        data.push_back(static_cast<std::uint8_t>(rng()));
    }
  }
  data.resize(target);
  return data;
}

class DifferentialCodecs : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DifferentialCodecs, EveryCodecRoundTripsEveryInput) {
  const std::uint64_t seed = property_seed(GetParam());
  SCOPED_TRACE("seed=" + std::to_string(seed));
  common::Xoshiro256 rng(seed);
  const auto data = adversarial(rng, 1 + rng.below(200000));
  const auto& reg = compress::CodecRegistry::extended();
  for (std::size_t l = 0; l < reg.level_count(); ++l) {
    const auto& codec = *reg.level(l).codec;
    const auto comp = codec.compress(data);
    ASSERT_LE(comp.size(), codec.max_compressed_size(data.size()))
        << reg.level(l).label;
    ASSERT_EQ(codec.decompress(comp, data.size()), data)
        << reg.level(l).label;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialCodecs,
                         ::testing::Range<std::uint64_t>(1, 26));

class GarbageDecompression : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GarbageDecompression, NeverCrashesOnRandomInput) {
  // Feeding arbitrary bytes to any decompressor must either throw
  // CodecError or produce *some* output — never crash, hang, or scribble.
  const std::uint64_t seed = property_seed(GetParam());
  SCOPED_TRACE("seed=" + std::to_string(seed));
  common::Xoshiro256 rng(seed);
  const auto& reg = compress::CodecRegistry::extended();
  for (int trial = 0; trial < 20; ++trial) {
    common::Bytes garbage(1 + rng.below(5000));
    for (auto& b : garbage) b = static_cast<std::uint8_t>(rng());
    common::Bytes out(1 + rng.below(20000));
    for (std::size_t l = 1; l < reg.level_count(); ++l) {
      try {
        reg.level(l).codec->decompress(garbage, out);
      } catch (const compress::CodecError&) {
        // expected most of the time
      }
    }
  }
  SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(Seeds, GarbageDecompression,
                         ::testing::Range<std::uint64_t>(1, 6));

TEST(StreamingEquivalence, FirstBlockMatchesIndependentCompression) {
  // With no history, the streaming compressor must produce exactly the
  // independent encoder's output.
  common::Xoshiro256 rng(3);
  const auto data = adversarial(rng, 60000);
  compress::StreamingLzCompressor streaming;
  const auto a = streaming.compress_block(data);
  common::Bytes b(compress::lz77_max_compressed_size(data.size()));
  b.resize(compress::lz77_compress(data, b, compress::LzEffort::kLight));
  EXPECT_EQ(a, b);
}

TEST(FrameFuzz, GarbageStreamsAreRejectedNotMisparsed) {
  common::Xoshiro256 rng(property_seed(11));
  const auto& reg = compress::CodecRegistry::standard();
  for (int trial = 0; trial < 50; ++trial) {
    compress::FrameAssembler assembler(reg);
    common::Bytes garbage(compress::kFrameHeaderSize + rng.below(2000));
    for (auto& b : garbage) b = static_cast<std::uint8_t>(rng());
    assembler.feed(garbage);
    try {
      while (assembler.next_block()) {
      }
    } catch (const compress::CodecError&) {
      continue;
    }
    // No exception means the random bytes never formed a complete header
    // + payload — also fine.
  }
  SUCCEED();
}

// --- controller trace invariants ----------------------------------------------

TEST(ControllerInvariants, HoldUnderRandomRateWalks) {
  common::Xoshiro256 rng(21);
  for (int walk = 0; walk < 20; ++walk) {
    core::AdaptiveConfig cfg;
    cfg.num_levels = 2 + static_cast<int>(rng.below(5));
    cfg.alpha = rng.uniform(0.05, 0.4);
    core::ControllerState st;
    int prev_level = 0;
    double rate = 1e6;
    for (int w = 0; w < 2000; ++w) {
      rate = std::max(1.0, rate * rng.uniform(0.7, 1.4));
      const auto dec = core::controller_step(cfg, st, rate);
      // 1. Levels always valid.
      ASSERT_GE(dec.level, 0);
      ASSERT_LT(dec.level, cfg.num_levels);
      // 2. At most one rung per window.
      ASSERT_LE(std::abs(dec.level - prev_level), 1);
      // 3. probed and reverted are mutually exclusive.
      ASSERT_FALSE(dec.probed && dec.reverted);
      // 4. Backoffs stay within the cap.
      for (int l = 0; l < cfg.num_levels; ++l) {
        ASSERT_GE(st.bck[l], 0);
        ASSERT_LE(st.bck[l], core::kMaxBackoffExponent);
      }
      prev_level = dec.level;
    }
  }
}

TEST(ControllerInvariants, ConstantRateConvergesToPeriodicProbing) {
  // Under a perfectly constant rate every decision is a probe (the rate
  // never "improves"), so bck never grows and probing is periodic with
  // period 1 — the documented no-signal behaviour.
  core::ControllerState st;
  int probes = 0;
  for (int w = 0; w < 100; ++w) {
    if (core::controller_step({}, st, 1000.0).probed) ++probes;
  }
  EXPECT_GT(probes, 90);
}

TEST(ControllerInvariants, RewardedLevelKeepsLongerBackoffs) {
  // A level that repeatedly improves the rate must end with a strictly
  // larger backoff than its neighbours.
  core::ControllerState st;
  double rate = 100.0;
  core::controller_step({}, st, rate);  // -> level 1
  for (int i = 0; i < 6; ++i) {
    rate *= 1.5;
    core::controller_step({}, st, rate);  // improvements at level 1
  }
  EXPECT_GT(st.bck[1], st.bck[0]);
  EXPECT_GT(st.bck[1], st.bck[2]);
}

}  // namespace
}  // namespace strato
