// Synthetic corpus generators — the Canterbury-corpus substitution.
//
// The paper drives its evaluation with three files of distinct
// compressibility (Section IV-A):
//   * `ptt5` (bilevel fax, HIGH):        compresses to 10–15 %
//   * `alice29.txt` (English, MODERATE): compresses to 30–50 %
//   * `image.jpg` (JPEG, LOW):           compresses to 90–95 %
//
// We replace the files with deterministic generators tuned (and unit-tested)
// to land in the same ratio bands with our codecs. Only the ratio band and
// block-level stationarity matter to the adaptive algorithm, not the exact
// byte content.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"

namespace strato::corpus {

/// The three compressibility classes of the paper's evaluation.
enum class Compressibility {
  kHigh,      // ptt5-like: ratio 0.10-0.15
  kModerate,  // alice29.txt-like: ratio 0.30-0.50
  kLow,       // image.jpg-like: ratio 0.90-0.95
};

/// Human-readable label matching the paper's tables ("HIGH", ...).
const char* to_string(Compressibility c);

/// Infinite deterministic byte stream.
class Generator {
 public:
  virtual ~Generator() = default;

  /// Fill `out` with the next bytes of the stream.
  virtual void generate(common::MutableByteSpan out) = 0;

  /// Restart the stream from the beginning with a (new) seed.
  virtual void reset(std::uint64_t seed) = 0;

  /// Short description for logs and bench output.
  [[nodiscard]] virtual std::string name() const = 0;
};

/// Convenience: materialise `n` bytes from a generator.
common::Bytes take(Generator& gen, std::size_t n);

/// Bilevel-fax-like stream (HIGH): scanlines that are mostly long white
/// runs with occasional black bursts, each line strongly correlated with
/// the previous one — the structure that lets LZ codecs reach ~10-15 %.
class FaxGenerator final : public Generator {
 public:
  explicit FaxGenerator(std::uint64_t seed = 1);
  void generate(common::MutableByteSpan out) override;
  void reset(std::uint64_t seed) override;
  [[nodiscard]] std::string name() const override { return "fax(HIGH)"; }

 private:
  // One scanline of a 1728-pixel bilevel page = 216 bytes.
  static constexpr std::size_t kLineWidth = 216;
  static constexpr std::size_t kRunCount = 4;

  struct Run {
    std::size_t start;
    std::size_t len;
  };

  void next_line();

  common::Xoshiro256 rng_;
  std::array<Run, kRunCount> runs_{};  // black runs; drift without noise
  std::array<std::uint8_t, kLineWidth> line_{};  // runs + transient noise
  std::size_t line_pos_ = 0;  // emit cursor within line_
  std::uint64_t seed_;
};

/// Zipf-vocabulary English-like text (MODERATE): words drawn from a fixed
/// synthetic vocabulary under a Zipf law with punctuation and line breaks;
/// repetition gives LZ some traction but per-word entropy keeps the ratio
/// in the 30-50 % band.
class TextGenerator final : public Generator {
 public:
  explicit TextGenerator(std::uint64_t seed = 1);
  void generate(common::MutableByteSpan out) override;
  void reset(std::uint64_t seed) override;
  [[nodiscard]] std::string name() const override { return "text(MODERATE)"; }

 private:
  static constexpr std::size_t kVocabSize = 800;
  // A word is 2-9 letters, kept in a 16-byte slot so it copies as one move.
  static constexpr std::size_t kWordSlot = 16;
  // guide_[k] is the first rank whose CDF reaches k / kGuideSize.
  static constexpr std::size_t kGuideSize = 4096;
  // A sentence is at most 17 words, each followed by at most two separator
  // bytes and a line break; the last slot copy may run 16 bytes past it.
  static constexpr std::size_t kSentenceCap = 17 * (9 + 3) + kWordSlot;

  void refill();

  common::Xoshiro256 rng_;
  std::vector<std::array<char, kWordSlot>> vocab_;
  std::vector<std::uint8_t> vocab_len_;
  std::vector<double> zipf_cdf_;
  std::vector<std::uint16_t> guide_;
  std::array<char, kSentenceCap> sentence_{};
  std::size_t sentence_len_ = 0;
  std::size_t sentence_pos_ = 0;
  std::size_t line_len_ = 0;
  std::uint64_t seed_;
};

/// JPEG-like high-entropy stream (LOW): PRNG bytes interleaved with sparse
/// repeated marker/structure segments so codecs shave only 5-10 %.
class EntropyGenerator final : public Generator {
 public:
  explicit EntropyGenerator(std::uint64_t seed = 1);
  void generate(common::MutableByteSpan out) override;
  void reset(std::uint64_t seed) override;
  [[nodiscard]] std::string name() const override { return "entropy(LOW)"; }

 private:
  common::Xoshiro256 rng_;
  common::Bytes marker_;
  std::size_t until_marker_ = 0;  // random bytes to emit before next marker
  std::size_t marker_pos_ = 0;    // 0 => not currently emitting a marker
  std::uint64_t seed_;
};

/// Structured service-log stream: timestamped lines with a small set of
/// level/component templates, realistic numeric fields and occasional
/// request ids. Compressibility sits between MODERATE and HIGH (logs are
/// template-heavy) — the workload of the log-shipper example.
class LogGenerator final : public Generator {
 public:
  explicit LogGenerator(std::uint64_t seed = 1);
  void generate(common::MutableByteSpan out) override;
  void reset(std::uint64_t seed) override;
  [[nodiscard]] std::string name() const override { return "logs"; }

 private:
  void refill();

  common::Xoshiro256 rng_;
  std::string pending_;
  std::size_t pending_pos_ = 0;
  std::uint64_t time_ms_ = 0;
  std::uint64_t seed_;
};

/// Columnar binary table: rows of (id delta, timestamp, gauge double,
/// enum byte) fields written column-group-wise — the mixed-entropy shape
/// of analytics shuffle data.
class ColumnarGenerator final : public Generator {
 public:
  explicit ColumnarGenerator(std::uint64_t seed = 1);
  void generate(common::MutableByteSpan out) override;
  void reset(std::uint64_t seed) override;
  [[nodiscard]] std::string name() const override { return "columnar"; }

 private:
  void refill();

  common::Xoshiro256 rng_;
  common::Bytes pending_;
  std::size_t pending_pos_ = 0;
  std::uint64_t row_id_ = 0;
  std::uint64_t time_us_ = 0;
  double gauge_ = 100.0;
  std::uint64_t seed_;
};

/// Factory for the paper's three workloads.
std::unique_ptr<Generator> make_generator(Compressibility c,
                                          std::uint64_t seed = 1);

}  // namespace strato::corpus
