// Workload schedules: spec parsing, per-offset class lookup, the
// scheduled byte stream, and the simulator integration.
#include <gtest/gtest.h>

#include "corpus/entropy.h"
#include "corpus/schedule.h"
#include "expkit/policies.h"
#include "vsim/transfer.h"

namespace strato::corpus {
namespace {

TEST(Schedule, ParsesSpecStrings) {
  const auto s = parse_schedule("HIGH:10G,LOW:5G,MODERATE:512M");
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s[0].data, Compressibility::kHigh);
  EXPECT_EQ(s[0].bytes, 10'000'000'000ULL);
  EXPECT_EQ(s[1].data, Compressibility::kLow);
  EXPECT_EQ(s[1].bytes, 5'000'000'000ULL);
  EXPECT_EQ(s[2].data, Compressibility::kModerate);
  EXPECT_EQ(s[2].bytes, 512'000'000ULL);
  EXPECT_EQ(schedule_length(s), 15'512'000'000ULL);
}

TEST(Schedule, ParsesPlainAndKiloSizes) {
  const auto s = parse_schedule("LOW:123,HIGH:4K");
  EXPECT_EQ(s[0].bytes, 123u);
  EXPECT_EQ(s[1].bytes, 4000u);
}

TEST(Schedule, RejectsMalformedSpecs) {
  EXPECT_THROW(parse_schedule(""), std::invalid_argument);
  EXPECT_THROW(parse_schedule("HIGH"), std::invalid_argument);
  EXPECT_THROW(parse_schedule("TINY:1G"), std::invalid_argument);
  EXPECT_THROW(parse_schedule("HIGH:"), std::invalid_argument);
  EXPECT_THROW(parse_schedule("HIGH:G"), std::invalid_argument);
  EXPECT_THROW(parse_schedule("HIGH:12x"), std::invalid_argument);
  EXPECT_THROW(parse_schedule("HIGH:0"), std::invalid_argument);
  // Sizes and totals past 2^64 - 1 must not wrap.
  EXPECT_THROW(parse_schedule("HIGH:18446744073709551617"),
               std::invalid_argument);
  EXPECT_THROW(parse_schedule("HIGH:20000000000G"), std::invalid_argument);
  EXPECT_THROW(
      parse_schedule("HIGH:9223372036854775808,LOW:9223372036854775808"),
      std::invalid_argument);
}

TEST(Schedule, ClassAtWalksAndWraps) {
  const auto s = parse_schedule("HIGH:100,LOW:50");
  EXPECT_EQ(class_at(s, 0), Compressibility::kHigh);
  EXPECT_EQ(class_at(s, 99), Compressibility::kHigh);
  EXPECT_EQ(class_at(s, 100), Compressibility::kLow);
  EXPECT_EQ(class_at(s, 149), Compressibility::kLow);
  EXPECT_EQ(class_at(s, 150), Compressibility::kHigh);  // wraps
  EXPECT_EQ(class_at(s, 150 + 120), Compressibility::kLow);
  EXPECT_EQ(class_at({}, 42, Compressibility::kModerate),
            Compressibility::kModerate);
}

TEST(ScheduledGenerator, SegmentsHaveTheRightCharacter) {
  ScheduledGenerator gen(parse_schedule("HIGH:50000,LOW:50000"), 3);
  const auto high_part = take(gen, 50000);
  const auto low_part = take(gen, 50000);
  EXPECT_LT(shannon_entropy(high_part), 2.5);
  EXPECT_GT(shannon_entropy(low_part), 7.5);
  // Wrap-around: next 50 KB are HIGH again.
  const auto wrapped = take(gen, 50000);
  EXPECT_LT(shannon_entropy(wrapped), 2.5);
}

TEST(ScheduledGenerator, DeterministicAndResettable) {
  const auto spec = parse_schedule("MODERATE:10000,LOW:5000");
  ScheduledGenerator a(spec, 7), b(spec, 7);
  const auto x = take(a, 40000);
  EXPECT_EQ(x, take(b, 40000));
  a.reset(7);
  EXPECT_EQ(take(a, 40000), x);
}

TEST(ScheduledGenerator, ChunkingInvariance) {
  const auto spec = parse_schedule("HIGH:777,LOW:333,MODERATE:555");
  ScheduledGenerator a(spec, 5), b(spec, 5);
  const auto whole = take(a, 20000);
  common::Bytes pieces;
  std::size_t step = 1;
  while (pieces.size() < whole.size()) {
    const std::size_t n =
        std::min<std::size_t>(step = (step * 7 + 3) % 97 + 1,
                              whole.size() - pieces.size());
    const auto chunk = take(b, n);
    pieces.insert(pieces.end(), chunk.begin(), chunk.end());
  }
  EXPECT_EQ(pieces, whole);
}

TEST(ScheduleInSimulator, TraceDrivesCompressibility) {
  // A trace that is 80 % HIGH should move far fewer wire bytes than one
  // that is 80 % LOW, under the same adaptive policy.
  const auto mostly_high = parse_schedule("HIGH:800M,LOW:200M");
  const auto mostly_low = parse_schedule("HIGH:200M,LOW:800M");
  const auto run = [](const std::vector<Segment>& schedule) {
    vsim::TransferConfig cfg;
    cfg.schedule = schedule;
    cfg.total_bytes = 2'000'000'000ULL;
    cfg.seed = 9;
    vsim::TransferExperiment exp(cfg);
    const auto policy = expkit::make_policy("DYNAMIC", exp);
    return exp.run(*policy);
  };
  const auto high_res = run(mostly_high);
  const auto low_res = run(mostly_low);
  EXPECT_LT(high_res.wire_bytes, low_res.wire_bytes / 2);
  EXPECT_LT(high_res.completion_s, low_res.completion_s);
}

}  // namespace
}  // namespace strato::corpus
