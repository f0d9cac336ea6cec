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
// One scanline of a 1728-pixel bilevel page = 216 bytes.
constexpr std::size_t kLineWidth = 216;
// Fresh random bytes overlaid per emitted line ("halftone noise"). The
// noise is transient — it does not persist into the next line — so every
// noisy position causes two inter-line differences (appear + revert).
// Together with the run drift this pins the LIGHT-codec ratio in the
// paper's 10-15 % band for ptt5-class data.
constexpr std::size_t kNoisePerLine = 1;
constexpr std::size_t kRunCount = 4;
}  // namespace

FaxGenerator::FaxGenerator(std::uint64_t seed) { reset(seed); }

void FaxGenerator::reset(std::uint64_t seed) {
  seed_ = seed;
  rng_ = common::Xoshiro256(seed ^ 0xFA80000000000001ULL);
  runs_.clear();
  for (std::size_t r = 0; r < kRunCount; ++r) {
    runs_.push_back({rng_.below(kLineWidth - 16), 2 + rng_.below(8)});
  }
  line_.assign(kLineWidth, 0x00);
  line_pos_ = 0;
  next_line();
}

void FaxGenerator::next_line() {
  // Rebuild the scanline from the run structure: long white (0x00) runs
  // with a handful of black (0xFF) runs whose edges drift line to line —
  // the shape of a bilevel fax page.
  std::fill(line_.begin(), line_.end(), 0x00);
  for (auto& run : runs_) {
    if (rng_.uniform() < 0.5) {
      const std::size_t step = rng_.below(3);  // 0,1,2 -> -1,0,+1
      run.start = std::min<std::size_t>(
          kLineWidth - 16,
          std::max<std::size_t>(1, run.start + step) - 1);
    }
    if (rng_.uniform() < 0.15) {
      run.len = 2 + (run.len - 1) % 10;  // slow length wobble
    }
    const std::size_t end = std::min(kLineWidth, run.start + run.len);
    for (std::size_t i = run.start; i < end; ++i) line_[i] = 0xFF;
  }
  // Transient halftone noise.
  for (std::size_t i = 0; i < kNoisePerLine; ++i) {
    line_[rng_.below(kLineWidth)] = static_cast<std::uint8_t>(rng_());
  }
  line_pos_ = 0;
}

void FaxGenerator::generate(common::MutableByteSpan out) {
  std::size_t done = 0;
  while (done < out.size()) {
    if (line_pos_ >= line_.size()) next_line();
    const std::size_t n =
        std::min(out.size() - done, line_.size() - line_pos_);
    std::memcpy(out.data() + done, line_.data() + line_pos_, n);
    done += n;
    line_pos_ += n;
  }
}

// ---------------------------------------------------------------------------
// TextGenerator
// ---------------------------------------------------------------------------

namespace {
constexpr std::size_t kVocabSize = 800;
constexpr double kZipfExponent = 1.05;
}  // namespace

TextGenerator::TextGenerator(std::uint64_t seed) {
  // The vocabulary is the "language" and stays fixed across seeds so two
  // streams with different seeds still share word shapes (like two English
  // texts do); the seed only controls word order.
  common::Xoshiro256 vocab_rng(0xA11CE29ULL);
  vocab_.reserve(kVocabSize);
  for (std::size_t i = 0; i < kVocabSize; ++i) {
    const std::size_t len = 2 + vocab_rng.below(8);
    std::string w;
    w.reserve(len);
    for (std::size_t j = 0; j < len; ++j) {
      w.push_back(static_cast<char>('a' + vocab_rng.below(26)));
    }
    vocab_.push_back(std::move(w));
  }
  // Zipf CDF over ranks.
  zipf_cdf_.resize(kVocabSize);
  double acc = 0.0;
  for (std::size_t i = 0; i < kVocabSize; ++i) {
    acc += 1.0 / std::pow(static_cast<double>(i + 1), kZipfExponent);
    zipf_cdf_[i] = acc;
  }
  for (auto& v : zipf_cdf_) v /= acc;
  reset(seed);
}

void TextGenerator::reset(std::uint64_t seed) {
  seed_ = seed;
  rng_ = common::Xoshiro256(seed ^ 0x7E870000000000A5ULL);
  pending_.clear();
  pending_pos_ = 0;
  line_len_ = 0;
}

void TextGenerator::refill() {
  pending_.clear();
  pending_pos_ = 0;
  // Emit a sentence-sized chunk of words.
  const std::size_t words = 6 + rng_.below(12);
  for (std::size_t w = 0; w < words; ++w) {
    const double u = rng_.uniform();
    const auto it =
        std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u);
    std::string word = vocab_[static_cast<std::size_t>(
        std::distance(zipf_cdf_.begin(), it))];
    if (w == 0) word[0] = static_cast<char>(word[0] - 'a' + 'A');
    pending_ += word;
    line_len_ += word.size() + 1;
    if (w + 1 == words) {
      pending_ += rng_.uniform() < 0.85 ? ". " : "! ";
    } else if (rng_.uniform() < 0.08) {
      pending_ += ", ";
    } else {
      pending_ += ' ';
    }
    if (line_len_ > 68) {
      pending_ += '\n';
      line_len_ = 0;
    }
  }
}

void TextGenerator::generate(common::MutableByteSpan out) {
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
    const std::size_t n = std::min(out.size() - done, until_marker_);
    for (std::size_t i = 0; i < n; ++i) {
      out[done + i] = static_cast<std::uint8_t>(rng_());
    }
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
