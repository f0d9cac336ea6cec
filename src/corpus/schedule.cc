#include "corpus/schedule.h"

#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string>

namespace strato::corpus {

namespace {

Compressibility parse_class(std::string_view token) {
  if (token == "HIGH") return Compressibility::kHigh;
  if (token == "MODERATE") return Compressibility::kModerate;
  if (token == "LOW") return Compressibility::kLow;
  throw std::invalid_argument("schedule: unknown class '" +
                              std::string(token) + "'");
}

std::uint64_t parse_size(std::string_view token) {
  if (token.empty()) throw std::invalid_argument("schedule: empty size");
  std::uint64_t scale = 1;
  switch (token.back()) {
    case 'K':
      scale = 1000ULL;
      token.remove_suffix(1);
      break;
    case 'M':
      scale = 1000'000ULL;
      token.remove_suffix(1);
      break;
    case 'G':
      scale = 1000'000'000ULL;
      token.remove_suffix(1);
      break;
    default:
      break;
  }
  if (token.empty()) throw std::invalid_argument("schedule: empty size");
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t value = 0;
  for (const char c : token) {
    if (c < '0' || c > '9') {
      throw std::invalid_argument("schedule: bad size digit");
    }
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (value > (kMax - digit) / 10) {
      throw std::invalid_argument("schedule: size overflows 64 bits");
    }
    value = value * 10 + digit;
  }
  if (value == 0) throw std::invalid_argument("schedule: zero-length segment");
  if (value > kMax / scale) {
    throw std::invalid_argument("schedule: size overflows 64 bits");
  }
  return value * scale;
}

int class_index(Compressibility c) {
  switch (c) {
    case Compressibility::kHigh:
      return 0;
    case Compressibility::kModerate:
      return 1;
    case Compressibility::kLow:
      return 2;
  }
  return 0;
}

}  // namespace

std::vector<Segment> parse_schedule(std::string_view spec) {
  std::vector<Segment> out;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::string_view part =
        spec.substr(pos, comma == std::string_view::npos ? spec.size() - pos
                                                         : comma - pos);
    const std::size_t colon = part.find(':');
    if (colon == std::string_view::npos) {
      throw std::invalid_argument("schedule: segment needs CLASS:SIZE");
    }
    out.push_back(
        {parse_class(part.substr(0, colon)), parse_size(part.substr(colon + 1))});
    if (comma == std::string_view::npos) break;
    pos = comma + 1;
  }
  if (out.empty()) throw std::invalid_argument("schedule: empty spec");
  schedule_length(out);  // rejects a total that overflows
  return out;
}

std::uint64_t schedule_length(const std::vector<Segment>& schedule) {
  std::uint64_t total = 0;
  for (const auto& s : schedule) {
    if (s.bytes > std::numeric_limits<std::uint64_t>::max() - total) {
      throw std::invalid_argument("schedule: total length overflows 64 bits");
    }
    total += s.bytes;
  }
  return total;
}

Compressibility class_at(const std::vector<Segment>& schedule,
                         std::uint64_t offset, Compressibility fallback) {
  const std::uint64_t total = schedule_length(schedule);
  if (total == 0) return fallback;
  std::uint64_t pos = offset % total;
  for (const auto& s : schedule) {
    if (pos < s.bytes) return s.data;
    pos -= s.bytes;
  }
  return schedule.back().data;  // unreachable, but keeps the compiler calm
}

ScheduledGenerator::ScheduledGenerator(std::vector<Segment> schedule,
                                       std::uint64_t seed)
    : schedule_(std::move(schedule)) {
  reset(seed);
}

void ScheduledGenerator::reset(std::uint64_t seed) {
  gens_[0] = make_generator(Compressibility::kHigh, seed);
  gens_[1] = make_generator(Compressibility::kModerate, seed ^ 0x3331);
  gens_[2] = make_generator(Compressibility::kLow, seed ^ 0x7772);
  offset_ = 0;
}

void ScheduledGenerator::generate(common::MutableByteSpan out) {
  std::size_t done = 0;
  const std::uint64_t total = schedule_length(schedule_);
  while (done < out.size()) {
    const Compressibility cls = class_at(schedule_, offset_);
    // Bytes left in the current segment (bounded chunk).
    std::uint64_t pos = total == 0 ? 0 : offset_ % total;
    std::uint64_t left = out.size() - done;
    for (const auto& s : schedule_) {
      if (pos < s.bytes) {
        left = std::min<std::uint64_t>(left, s.bytes - pos);
        break;
      }
      pos -= s.bytes;
    }
    gens_[class_index(cls)]->generate(
        out.subspan(done, static_cast<std::size_t>(left)));
    done += static_cast<std::size_t>(left);
    offset_ += left;
  }
}

}  // namespace strato::corpus
