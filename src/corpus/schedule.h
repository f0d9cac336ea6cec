// Compressibility schedules — generalized Fig. 6 workloads.
//
// The paper switches between two files every 10 GB; real applications
// move through arbitrary phases (load a compressed archive, emit text
// logs, shuffle binary columns, ...). A schedule is a list of
// (class, bytes) segments, parsable from a compact spec string like
//
//   "HIGH:10G,LOW:5G,MODERATE:512M"
//
// and usable both by the simulator (per-offset class lookup) and as a
// real byte stream (ScheduledGenerator).
#pragma once

#include <string_view>
#include <vector>

#include "corpus/generator.h"

namespace strato::corpus {

/// One phase of a scheduled workload.
struct Segment {
  Compressibility data = Compressibility::kHigh;
  std::uint64_t bytes = 0;
};

/// Parse "CLASS:SIZE[,CLASS:SIZE...]" where CLASS is HIGH/MODERATE/LOW
/// and SIZE takes K/M/G suffixes (powers of ten, like the paper's GB).
/// @throws std::invalid_argument on malformed specs, and on a size or a
/// total length that overflows 64 bits.
std::vector<Segment> parse_schedule(std::string_view spec);

/// Class at `offset` bytes into the schedule; the schedule repeats
/// cyclically past its total length. Empty schedules yield `fallback`.
Compressibility class_at(const std::vector<Segment>& schedule,
                         std::uint64_t offset,
                         Compressibility fallback = Compressibility::kHigh);

/// Total bytes of one schedule pass (0 for an empty schedule).
/// @throws std::invalid_argument when the total overflows 64 bits.
std::uint64_t schedule_length(const std::vector<Segment>& schedule);

/// Byte stream walking a schedule (cyclically), backed by one generator
/// per class.
class ScheduledGenerator final : public Generator {
 public:
  ScheduledGenerator(std::vector<Segment> schedule, std::uint64_t seed = 1);
  void generate(common::MutableByteSpan out) override;
  void reset(std::uint64_t seed) override;
  [[nodiscard]] std::string name() const override { return "scheduled"; }

 private:
  std::vector<Segment> schedule_;
  std::unique_ptr<Generator> gens_[3];
  std::uint64_t offset_ = 0;
};

}  // namespace strato::corpus
