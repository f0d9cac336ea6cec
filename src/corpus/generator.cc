#include "corpus/generator.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace strato::corpus {

const char* to_string(Compressibility c) {
  switch (c) {
    case Compressibility::kHigh:
      return "HIGH";
    case Compressibility::kModerate:
      return "MODERATE";
    case Compressibility::kLow:
      return "LOW";
  }
  return "?";
}

common::Bytes take(Generator& gen, std::size_t n) {
  common::Bytes out(n);
  gen.generate(out);
  return out;
}

// ---------------------------------------------------------------------------
// FaxGenerator
// ---------------------------------------------------------------------------

namespace {
// Fresh random bytes overlaid per emitted line ("halftone noise"). The
// noise is transient — it does not persist into the next line — so every
// noisy position causes two inter-line differences (appear + revert).
// Together with the run drift this pins the LIGHT-codec ratio in the
// paper's 10-15 % band for ptt5-class data.
constexpr std::size_t kNoisePerLine = 1;
}  // namespace

FaxGenerator::FaxGenerator(std::uint64_t seed) { reset(seed); }

void FaxGenerator::reset(std::uint64_t seed) {
  seed_ = seed;
  rng_ = common::Xoshiro256(seed ^ 0xFA80000000000001ULL);
  for (Run& run : runs_) {
    run.start = rng_.below(kLineWidth - 16);
    run.len = 2 + rng_.below(8);
  }
  next_line();
}

void FaxGenerator::next_line() {
  // Rebuild the scanline from the run structure: long white (0x00) runs
  // with a handful of black (0xFF) runs whose edges drift line to line —
  // the shape of a bilevel fax page. The generator runs on a local copy:
  // byte stores through `line` may alias a member, which would make the
  // compiler write back and reload its state around every store.
  common::Xoshiro256 rng = rng_;
  std::uint8_t* const line = line_.data();
  std::memset(line, 0x00, kLineWidth);
  for (Run& run : runs_) {
    if (rng.uniform() < 0.5) {
      const std::size_t step = rng.below(3);  // 0,1,2 -> -1,0,+1
      run.start = std::min<std::size_t>(
          kLineWidth - 16,
          std::max<std::size_t>(1, run.start + step) - 1);
    }
    if (rng.uniform() < 0.15) {
      run.len = 2 + (run.len - 1) % 10;  // slow length wobble
    }
    const std::size_t end = std::min(kLineWidth, run.start + run.len);
    std::memset(line + run.start, 0xFF, end - run.start);
  }
  // Transient halftone noise. The stream was defined by
  // `line_[rng_.below(kLineWidth)] = rng_()`, and C++17 evaluates the
  // right operand of `=` first: the value is drawn before its position.
  for (std::size_t i = 0; i < kNoisePerLine; ++i) {
    const auto noise = static_cast<std::uint8_t>(rng());
    line[rng.below(kLineWidth)] = noise;
  }
  rng_ = rng;
  line_pos_ = 0;
}

void FaxGenerator::generate(common::MutableByteSpan out) {
  std::size_t done = 0;
  while (done < out.size()) {
    if (line_pos_ >= kLineWidth) next_line();
    const std::size_t n = std::min(out.size() - done, kLineWidth - line_pos_);
    std::memcpy(out.data() + done, line_.data() + line_pos_, n);
    done += n;
    line_pos_ += n;
  }
}

// ---------------------------------------------------------------------------
// TextGenerator
// ---------------------------------------------------------------------------

namespace {
constexpr double kZipfExponent = 1.05;
}  // namespace

TextGenerator::TextGenerator(std::uint64_t seed)
    : vocab_(kVocabSize),
      vocab_len_(kVocabSize),
      zipf_cdf_(kVocabSize),
      guide_(kGuideSize) {
  // The vocabulary is the "language" and stays fixed across seeds so two
  // streams with different seeds still share word shapes (like two English
  // texts do); the seed only controls word order.
  common::Xoshiro256 vocab_rng(0xA11CE29ULL);
  for (std::size_t i = 0; i < kVocabSize; ++i) {
    const std::size_t len = 2 + vocab_rng.below(8);
    vocab_len_[i] = static_cast<std::uint8_t>(len);
    for (std::size_t j = 0; j < len; ++j) {
      vocab_[i][j] = static_cast<char>('a' + vocab_rng.below(26));
    }
  }
  // Zipf CDF over ranks. Its last entry is acc / acc, exactly 1.0, so a
  // forward scan for any u < 1 stops inside the table.
  double acc = 0.0;
  for (std::size_t i = 0; i < kVocabSize; ++i) {
    acc += 1.0 / std::pow(static_cast<double>(i + 1), kZipfExponent);
    zipf_cdf_[i] = acc;
  }
  for (auto& v : zipf_cdf_) v /= acc;
  for (std::size_t k = 0; k < kGuideSize; ++k) {
    const double lo = static_cast<double>(k) / kGuideSize;
    guide_[k] = static_cast<std::uint16_t>(
        std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), lo) -
        zipf_cdf_.begin());
  }
  reset(seed);
}

void TextGenerator::reset(std::uint64_t seed) {
  seed_ = seed;
  rng_ = common::Xoshiro256(seed ^ 0x7E870000000000A5ULL);
  sentence_len_ = 0;
  sentence_pos_ = 0;
  line_len_ = 0;
}

void TextGenerator::refill() {
  // Emit a sentence-sized chunk of words. The generator, the line length
  // and the table pointers live in locals: char stores may alias any
  // member, and would otherwise force a write-back and reload per byte.
  common::Xoshiro256 rng = rng_;
  std::size_t line_len = line_len_;
  const auto* const vocab = vocab_.data();
  const std::uint8_t* const vocab_len = vocab_len_.data();
  const double* const cdf = zipf_cdf_.data();
  const std::uint16_t* const guide = guide_.data();
  char* const begin = sentence_.data();
  char* p = begin;
  const std::size_t words = 6 + rng.below(12);
  for (std::size_t w = 0; w < words; ++w) {
    // The rank std::lower_bound would find: u * kGuideSize is exact, so
    // guide[floor(u * kGuideSize)] never lies past it, and the CDF does
    // not decrease.
    const double u = rng.uniform();
    std::size_t rank = guide[static_cast<std::size_t>(u * kGuideSize)];
    while (cdf[rank] < u) ++rank;
    std::memcpy(p, vocab[rank].data(), kWordSlot);
    if (w == 0) *p = static_cast<char>(*p - 'a' + 'A');
    const std::size_t len = vocab_len[rank];
    p += len;
    line_len += len + 1;
    if (w + 1 == words) {
      p[0] = rng.uniform() < 0.85 ? '.' : '!';
      p[1] = ' ';
      p += 2;
    } else if (rng.uniform() < 0.08) {
      p[0] = ',';
      p[1] = ' ';
      p += 2;
    } else {
      *p++ = ' ';
    }
    if (line_len > 68) {
      *p++ = '\n';
      line_len = 0;
    }
  }
  rng_ = rng;
  line_len_ = line_len;
  sentence_len_ = static_cast<std::size_t>(p - begin);
  sentence_pos_ = 0;
}

void TextGenerator::generate(common::MutableByteSpan out) {
  std::size_t done = 0;
  while (done < out.size()) {
    if (sentence_pos_ >= sentence_len_) refill();
    const std::size_t n =
        std::min(out.size() - done, sentence_len_ - sentence_pos_);
    std::memcpy(out.data() + done, sentence_.data() + sentence_pos_, n);
    done += n;
    sentence_pos_ += n;
  }
}

// ---------------------------------------------------------------------------
// EntropyGenerator
// ---------------------------------------------------------------------------

namespace {
constexpr std::size_t kMarkerLen = 48;
// Random-byte gap between markers; ~8 % of the stream is marker content,
// which is what keeps the achievable ratio in the 90-95 % band instead of
// ~100 %.
constexpr std::size_t kMinGap = 400;
constexpr std::size_t kMaxGap = 800;
}  // namespace

EntropyGenerator::EntropyGenerator(std::uint64_t seed) { reset(seed); }

void EntropyGenerator::reset(std::uint64_t seed) {
  seed_ = seed;
  rng_ = common::Xoshiro256(seed ^ 0x1A6E000000000077ULL);
  // Fixed pseudo-JPEG marker/structure segment (same across the stream so
  // it is LZ-matchable).
  common::Xoshiro256 marker_rng(0xCAFED00DULL);
  marker_.resize(kMarkerLen);
  for (auto& b : marker_) b = static_cast<std::uint8_t>(marker_rng());
  until_marker_ = kMinGap + rng_.below(kMaxGap - kMinGap);
  marker_pos_ = kMarkerLen;  // not emitting a marker right now
}

void EntropyGenerator::generate(common::MutableByteSpan out) {
  std::size_t done = 0;
  while (done < out.size()) {
    if (marker_pos_ < kMarkerLen) {
      // Emitting the fixed marker.
      const std::size_t n =
          std::min(out.size() - done, kMarkerLen - marker_pos_);
      std::memcpy(out.data() + done, marker_.data() + marker_pos_, n);
      done += n;
      marker_pos_ += n;
      if (marker_pos_ == kMarkerLen) {
        until_marker_ = kMinGap + rng_.below(kMaxGap - kMinGap);
      }
      continue;
    }
    if (until_marker_ == 0) {
      marker_pos_ = 0;
      continue;
    }
    // A local copy of the generator: the byte stores may alias `rng_`.
    const std::size_t n = std::min(out.size() - done, until_marker_);
    common::Xoshiro256 rng = rng_;
    std::uint8_t* const dst = out.data() + done;
    for (std::size_t i = 0; i < n; ++i) {
      dst[i] = static_cast<std::uint8_t>(rng());
    }
    rng_ = rng;
    done += n;
    until_marker_ -= n;
  }
}

// ---------------------------------------------------------------------------
// LogGenerator
// ---------------------------------------------------------------------------

namespace {
constexpr const char* kLogLevels[] = {"INFO", "INFO", "INFO", "DEBUG",
                                      "WARN", "ERROR"};
constexpr const char* kComponents[] = {
    "scheduler", "channel-mgr", "compressor", "io-layer", "heartbeat",
    "task-runner"};
constexpr const char* kMessages[] = {
    "accepted block of %u bytes",
    "window closed, application rate %u KB/s",
    "switching compression level to %u",
    "flushed %u buffers to network channel",
    "vertex %u finished successfully",
    "retrying connection, attempt %u"};
}  // namespace

LogGenerator::LogGenerator(std::uint64_t seed) { reset(seed); }

void LogGenerator::reset(std::uint64_t seed) {
  seed_ = seed;
  rng_ = common::Xoshiro256(seed ^ 0x10660000000000EEULL);
  pending_.clear();
  pending_pos_ = 0;
  time_ms_ = 1'600'000'000'000ULL;  // an epoch-ish base
}

void LogGenerator::refill() {
  pending_.clear();
  pending_pos_ = 0;
  char line[256];
  for (int i = 0; i < 16; ++i) {
    time_ms_ += rng_.below(150);
    char msg[128];
    std::snprintf(msg, sizeof msg, kMessages[rng_.below(6)],
                  static_cast<unsigned>(rng_.below(1000000)));
    std::snprintf(line, sizeof line,
                  "%llu %-5s [%s] req=%08llx %s\n",
                  static_cast<unsigned long long>(time_ms_),
                  kLogLevels[rng_.below(6)], kComponents[rng_.below(6)],
                  static_cast<unsigned long long>(rng_() & 0xFFFFFFFFu),
                  msg);
    pending_ += line;
  }
}

void LogGenerator::generate(common::MutableByteSpan out) {
  std::size_t done = 0;
  while (done < out.size()) {
    if (pending_pos_ >= pending_.size()) refill();
    const std::size_t n =
        std::min(out.size() - done, pending_.size() - pending_pos_);
    std::memcpy(out.data() + done, pending_.data() + pending_pos_, n);
    done += n;
    pending_pos_ += n;
  }
}

// ---------------------------------------------------------------------------
// ColumnarGenerator
// ---------------------------------------------------------------------------

ColumnarGenerator::ColumnarGenerator(std::uint64_t seed) { reset(seed); }

void ColumnarGenerator::reset(std::uint64_t seed) {
  seed_ = seed;
  rng_ = common::Xoshiro256(seed ^ 0xC01000000000AB1EULL);
  pending_.clear();
  pending_pos_ = 0;
  row_id_ = 1000000;
  time_us_ = 0;
  gauge_ = 100.0;
}

void ColumnarGenerator::refill() {
  // One column group of 256 rows: ids (u64, slowly increasing),
  // timestamps (u64, monotone), gauges (doubles on a random walk) and an
  // enum byte — written column-wise like a columnar page.
  constexpr int kRows = 256;
  pending_.clear();
  pending_pos_ = 0;
  pending_.resize(kRows * (8 + 8 + 8 + 1));
  std::uint8_t* p = pending_.data();
  std::uint64_t id = row_id_;
  for (int r = 0; r < kRows; ++r, p += 8) {
    id += 1 + rng_.below(3);
    common::store_le64(p, id);
  }
  row_id_ = id;
  std::uint64_t t = time_us_;
  for (int r = 0; r < kRows; ++r, p += 8) {
    t += 100 + rng_.below(50);
    common::store_le64(p, t);
  }
  time_us_ = t;
  for (int r = 0; r < kRows; ++r, p += 8) {
    gauge_ += rng_.gaussian(0.0, 0.5);
    std::uint64_t bits;
    std::memcpy(&bits, &gauge_, sizeof bits);
    common::store_le64(p, bits);
  }
  for (int r = 0; r < kRows; ++r, p += 1) {
    *p = static_cast<std::uint8_t>(rng_.below(5));
  }
}

void ColumnarGenerator::generate(common::MutableByteSpan out) {
  std::size_t done = 0;
  while (done < out.size()) {
    if (pending_pos_ >= pending_.size()) refill();
    const std::size_t n =
        std::min(out.size() - done, pending_.size() - pending_pos_);
    std::memcpy(out.data() + done, pending_.data() + pending_pos_, n);
    done += n;
    pending_pos_ += n;
  }
}

std::unique_ptr<Generator> make_generator(Compressibility c,
                                          std::uint64_t seed) {
  switch (c) {
    case Compressibility::kHigh:
      return std::make_unique<FaxGenerator>(seed);
    case Compressibility::kModerate:
      return std::make_unique<TextGenerator>(seed);
    case Compressibility::kLow:
      return std::make_unique<EntropyGenerator>(seed);
  }
  return nullptr;
}

}  // namespace strato::corpus
