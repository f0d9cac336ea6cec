#include "vsim/codec_model.h"

#include <algorithm>
#include <stdexcept>

#include "compress/profiler.h"

namespace strato::vsim {

namespace {
int class_index(corpus::Compressibility c) {
  switch (c) {
    case corpus::Compressibility::kHigh:
      return 0;
    case corpus::Compressibility::kModerate:
      return 1;
    case corpus::Compressibility::kLow:
      return 2;
  }
  throw std::logic_error("bad compressibility");
}
}  // namespace

const LevelBehaviour& CodecModel::get(int level,
                                      corpus::Compressibility c) const {
  return table_.at(static_cast<std::size_t>(level))
      .at(static_cast<std::size_t>(class_index(c)));
}

void CodecModel::set(int level, corpus::Compressibility c,
                     LevelBehaviour b) {
  table_.at(static_cast<std::size_t>(level))
      .at(static_cast<std::size_t>(class_index(c))) = b;
}

CodecModel CodecModel::defaults() {
  // Measured with the repository's codecs (RelWithDebInfo, one core) over
  // 8 MB of each synthetic corpus; see compress/profiler.h. MB/s below.
  // This is a frozen calibration, not a live measurement: TransferGolden
  // and FleetGolden pin the vsim results computed from it, so editing any
  // cell moves every vsim golden. The decode column predates the LZ77
  // decoder's sequence fast path, which made LIGHT and MEDIUM decode
  // 1.5-2x faster on HIGH and MODERATE data; do not refresh it to match.
  // The MEDIUM row (level 2) likewise predates MEDIUM's greedy parse,
  // which encodes 1.2-1.4x faster to ratios about 0.005-0.01 higher; do
  // not refresh it either. calibrate() measures the live codecs for runs
  // that want them.
  constexpr double MB = 1e6;
  CodecModel m;
  const auto fill = [&](int level, double hi_c, double hi_d, double hi_r,
                        double mo_c, double mo_d, double mo_r, double lo_c,
                        double lo_d, double lo_r) {
    m.table_[static_cast<std::size_t>(level)] = {
        LevelBehaviour{hi_c * MB, hi_d * MB, hi_r},
        LevelBehaviour{mo_c * MB, mo_d * MB, mo_r},
        LevelBehaviour{lo_c * MB, lo_d * MB, lo_r}};
  };
  //          ------ HIGH ------   ---- MODERATE ----   ------ LOW -------
  fill(0, 12000, 12000, 1.000, 12000, 12000, 1.000, 12000, 12000, 1.000);
  fill(1,   700,   750, 0.163,   230,   350, 0.438,   280, 20000, 0.937);
  fill(2,   185,  1050, 0.100,    76,   400, 0.384,    65, 18000, 0.936);
  fill(3,    32,   245, 0.047,    14,    43, 0.283,    11,    13, 0.943);
  return m;
}

CodecModel CodecModel::calibrate(const compress::CodecRegistry& registry,
                                 std::size_t bytes_per_cell) {
  CodecModel m = defaults();
  const corpus::Compressibility classes[] = {
      corpus::Compressibility::kHigh, corpus::Compressibility::kModerate,
      corpus::Compressibility::kLow};
  for (std::size_t l = 0; l < registry.level_count() &&
                          l < static_cast<std::size_t>(kNumLevels);
       ++l) {
    for (const auto c : classes) {
      auto gen = corpus::make_generator(c, /*seed=*/17);
      const auto p = compress::profile_codec(*registry.level(l).codec, *gen,
                                             bytes_per_cell);
      m.set(static_cast<int>(l), c,
            LevelBehaviour{p.compress_mb_s * 1e6, p.decompress_mb_s * 1e6,
                           p.ratio});
    }
  }
  return m;
}

BlockJitter draw_block_jitter(common::Xoshiro256& rng) {
  BlockJitter j;
  j.ratio = std::clamp(rng.gaussian(1.0, 0.01), 0.8, 1.2);
  j.speed = std::clamp(rng.gaussian(1.0, 0.04), 0.7, 1.3);
  return j;
}

double draw_host_generation(common::Xoshiro256& rng) {
  return std::clamp(rng.gaussian(1.0, 0.015), 0.9, 1.1);
}

}  // namespace strato::vsim
