// CompressingWriter / DecompressingReader: the application-facing pipeline
// of Section III-A.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/stream.h"
#include "corpus/generator.h"

namespace strato::core {
namespace {

using compress::CodecRegistry;

/// Sink capturing everything in memory.
class MemorySink final : public ByteSink {
 public:
  void write(common::ByteSpan data) override {
    bytes.insert(bytes.end(), data.begin(), data.end());
  }
  common::Bytes bytes;
};

common::Bytes pump_through(CompressionPolicy& policy, common::ByteSpan data,
                           std::size_t block_size, std::size_t write_grain) {
  MemorySink sink;
  common::ManualClock clock;
  CompressingWriter writer(sink, CodecRegistry::standard(), policy, clock,
                           block_size);
  std::size_t off = 0;
  while (off < data.size()) {
    const std::size_t n = std::min(write_grain, data.size() - off);
    writer.write(data.subspan(off, n));
    clock.advance(common::SimTime::ms(1));
    off += n;
  }
  writer.flush();
  EXPECT_EQ(writer.raw_bytes(), data.size());
  EXPECT_EQ(writer.framed_bytes(), sink.bytes.size());

  DecompressingReader reader(CodecRegistry::standard());
  reader.feed(sink.bytes);
  common::Bytes out;
  while (auto block = reader.next_block_view()) {
    out.insert(out.end(), block->data.begin(), block->data.end());
  }
  EXPECT_EQ(reader.raw_bytes(), out.size());
  return out;
}

TEST(Stream, RoundTripStaticLevels) {
  auto gen = corpus::make_generator(corpus::Compressibility::kModerate, 1);
  const auto data = corpus::take(*gen, 500000);
  for (int level = 0; level < 4; ++level) {
    StaticPolicy policy(level, "P");
    EXPECT_EQ(pump_through(policy, data, 128 * 1024, 10000), data)
        << "level " << level;
  }
}

TEST(Stream, CompressibleDataShrinksOnTheWire) {
  auto gen = corpus::make_generator(corpus::Compressibility::kHigh, 1);
  const auto data = corpus::take(*gen, 512 * 1024);
  MemorySink sink;
  common::ManualClock clock;
  StaticPolicy policy(1, "LIGHT");
  CompressingWriter writer(sink, CodecRegistry::standard(), policy, clock);
  writer.write(data);
  writer.flush();
  EXPECT_LT(writer.framed_bytes(), writer.raw_bytes() / 3);
}

class GrainSweep
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(GrainSweep, RoundTripAnyBlockAndWriteSizes) {
  const auto [block_size, grain] = GetParam();
  common::Xoshiro256 rng(block_size * 31 + grain);
  common::Bytes data(300000);
  for (std::size_t i = 0; i < data.size(); ++i) {
    // Mildly compressible pattern with noise.
    data[i] = static_cast<std::uint8_t>((i / 64) + (rng.below(8) == 0 ? rng() : 0));
  }
  StaticPolicy policy(2, "MEDIUM");
  EXPECT_EQ(pump_through(policy, data, block_size, grain), data);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, GrainSweep,
    ::testing::Values(std::pair<std::size_t, std::size_t>{1024, 1},
                      std::pair<std::size_t, std::size_t>{1024, 1024},
                      std::pair<std::size_t, std::size_t>{4096, 100000},
                      std::pair<std::size_t, std::size_t>{128 * 1024, 333},
                      std::pair<std::size_t, std::size_t>{128 * 1024,
                                                          128 * 1024},
                      std::pair<std::size_t, std::size_t>{64 * 1024, 65536}));

TEST(Stream, FlushEmitsPartialBlock) {
  MemorySink sink;
  common::ManualClock clock;
  StaticPolicy policy(0, "NO");
  CompressingWriter writer(sink, CodecRegistry::standard(), policy, clock,
                           128 * 1024);
  writer.write(common::as_bytes("tail"));
  EXPECT_EQ(sink.bytes.size(), 0u);  // buffered, not yet a full block
  writer.flush();
  EXPECT_GT(sink.bytes.size(), 0u);
  DecompressingReader reader(CodecRegistry::standard());
  reader.feed(sink.bytes);
  EXPECT_EQ(common::to_string(reader.next_block_view()->data), "tail");
}

TEST(Stream, PolicyLevelIsReadPerBlock) {
  // A policy that alternates levels every block; the receiver must see
  // frames of both levels and still reassemble the stream.
  class Alternator final : public CompressionPolicy {
   public:
    [[nodiscard]] int level() const override { return count_ % 2 == 0 ? 0 : 3; }
    void on_block(std::size_t, common::SimTime) override { ++count_; }
    [[nodiscard]] std::string name() const override { return "ALT"; }

   private:
    int count_ = 0;
  };
  auto gen = corpus::make_generator(corpus::Compressibility::kHigh, 3);
  const auto data = corpus::take(*gen, 8 * 16384);
  Alternator policy;
  MemorySink sink;
  common::ManualClock clock;
  CompressingWriter writer(sink, CodecRegistry::standard(), policy, clock,
                           16384);
  writer.write(data);
  writer.flush();
  EXPECT_EQ(writer.blocks_per_level()[0], 4u);
  EXPECT_EQ(writer.blocks_per_level()[3], 4u);

  DecompressingReader reader(CodecRegistry::standard());
  reader.feed(sink.bytes);
  common::Bytes out;
  while (auto b = reader.next_block_view()) {
    out.insert(out.end(), b->data.begin(), b->data.end());
  }
  EXPECT_EQ(out, data);
  EXPECT_EQ(reader.blocks_per_level()[0], 4u);
  EXPECT_EQ(reader.blocks_per_level()[3], 4u);
}

TEST(Stream, OutOfRangePolicyLevelIsClamped) {
  class Wild final : public CompressionPolicy {
   public:
    [[nodiscard]] int level() const override { return 99; }
    void on_block(std::size_t, common::SimTime) override {}
    [[nodiscard]] std::string name() const override { return "WILD"; }
  };
  Wild policy;
  const auto data = common::as_bytes("clamp me please, thank you kindly");
  MemorySink sink;
  common::ManualClock clock;
  CompressingWriter writer(sink, CodecRegistry::standard(), policy, clock, 16);
  writer.write(data);
  writer.flush();
  DecompressingReader reader(CodecRegistry::standard());
  reader.feed(sink.bytes);
  common::Bytes out;
  while (auto b = reader.next_block_view()) {
    out.insert(out.end(), b->data.begin(), b->data.end());
  }
  EXPECT_EQ(common::to_string(out), common::to_string(data));
}

TEST(Stream, AdaptivePolicySeesBackpressureTiming) {
  // The writer samples the clock after the sink accepts a block; with a
  // manual clock advanced inside a slow sink, the policy's decision
  // window sees the (lower) achievable rate.
  class SlowSink final : public ByteSink {
   public:
    explicit SlowSink(common::ManualClock& clk) : clk_(clk) {}
    void write(common::ByteSpan data) override {
      // 1 MB/s "link".
      clk_.advance(common::SimTime::seconds(
          static_cast<double>(data.size()) / 1e6));
    }

   private:
    common::ManualClock& clk_;
  };
  common::ManualClock clock;
  SlowSink sink(clock);
  AdaptivePolicy policy(AdaptiveConfig{}, common::SimTime::seconds(2));
  double last_rate = -1;
  policy.set_trace(
      [&](common::SimTime, double cdr, const Decision&) { last_rate = cdr; });
  CompressingWriter writer(sink, CodecRegistry::standard(), policy, clock,
                           64 * 1024);
  auto gen = corpus::make_generator(corpus::Compressibility::kLow, 4);
  const auto data = corpus::take(*gen, 4 << 20);
  writer.write(data);
  writer.flush();
  ASSERT_GT(last_rate, 0.0);
  // Achievable application rate ~1 MB/s (incompressible data, 1 MB/s sink).
  EXPECT_NEAR(last_rate, 1e6, 0.3e6);
}

}  // namespace
}  // namespace strato::core
