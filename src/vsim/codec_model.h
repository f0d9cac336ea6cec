// Codec behaviour model for the simulator.
//
// The virtual-time pipeline charges CPU time for compression and sizes
// wire transfers by ratio; both come from this table, indexed by
// (compression level, corpus class). Two sources:
//
//  * defaults(): constants measured from *this repository's* codecs over
//    *this repository's* corpus generators (tests pin the live values to
//    these within a tolerance), giving deterministic simulations;
//  * calibrate(): re-measures the real codecs at bench startup, so the
//    reproduced tables reflect the machine they run on.
#pragma once

#include <array>
#include <cstdint>

#include "common/rng.h"
#include "compress/registry.h"
#include "corpus/generator.h"

namespace strato::vsim {

/// Simulated behaviour of one level on one corpus class.
struct LevelBehaviour {
  double compress_bytes_s = 0.0;    ///< raw bytes/s, one dedicated core
  double decompress_bytes_s = 0.0;  ///< raw bytes/s, one dedicated core
  double ratio = 1.0;               ///< compressed/raw
};

/// (level x corpus) behaviour table.
class CodecModel {
 public:
  static constexpr int kNumLevels = 4;
  static constexpr int kNumClasses = 3;  // HIGH / MODERATE / LOW

  /// Behaviour of `level` on corpus class `c`.
  [[nodiscard]] const LevelBehaviour& get(
      int level, corpus::Compressibility c) const;

  /// Override one cell (tests, what-if ablations).
  void set(int level, corpus::Compressibility c, LevelBehaviour b);

  /// Constants measured from the repository's codecs (see file comment).
  static CodecModel defaults();

  /// Measure the real codecs over the real generators; `bytes_per_cell`
  /// of data per (level, corpus) pair.
  static CodecModel calibrate(
      const compress::CodecRegistry& registry = compress::CodecRegistry::standard(),
      std::size_t bytes_per_cell = 8u << 20);

 private:
  std::array<std::array<LevelBehaviour, kNumClasses>, kNumLevels> table_{};
};

/// Multiplicative spread of one block's ratio and codec speed (real
/// blocks are not identical).
struct BlockJitter {
  double ratio = 1.0;
  double speed = 1.0;
};

/// The simulators' one jitter draw: ratio ~ N(1, 0.01) clamped to
/// [0.8, 1.2], then speed ~ N(1, 0.04) clamped to [0.7, 1.3]. The ratio
/// is drawn first, so a seeded stream fixes both.
BlockJitter draw_block_jitter(common::Xoshiro256& rng);

/// The simulators' one host-generation draw (Schad et al., cited in
/// Section V): each run lands on a host whose speed factor is
/// N(1, 0.015) clamped to [0.9, 1.1], drawn before any block jitter.
double draw_host_generation(common::Xoshiro256& rng);

}  // namespace strato::vsim
