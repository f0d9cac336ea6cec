// Channel endpoints: in-memory, network (throttled pipe + compression),
// file (spill + compression).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <numeric>
#include <thread>

#include "common/rng.h"
#include "corpus/generator.h"
#include "dataflow/channel.h"

namespace strato::dataflow {
namespace {

std::vector<common::Bytes> make_records(corpus::Compressibility c, int n,
                                        std::size_t size) {
  auto gen = corpus::make_generator(c, 21);
  std::vector<common::Bytes> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) out.push_back(corpus::take(*gen, size));
  return out;
}

void pump(Channel& ch, const std::vector<common::Bytes>& records) {
  std::thread producer([&] {
    for (const auto& r : records) ch.writer().emit(r);
    ch.writer().close();
  });
  std::size_t got = 0;
  while (auto rec = ch.reader().next()) {
    ASSERT_LT(got, records.size());
    EXPECT_EQ(*rec, records[got]);
    ++got;
  }
  producer.join();
  EXPECT_EQ(got, records.size());
}

TEST(InMemoryChannel, RoundTripAndStats) {
  const auto records = make_records(corpus::Compressibility::kModerate, 100,
                                    5000);
  auto ch = make_inmemory_channel(8);
  pump(*ch, records);
  const auto stats = ch->stats();
  EXPECT_EQ(stats.records, 100u);
  EXPECT_EQ(stats.raw_bytes, 100u * 5000u);
  EXPECT_EQ(stats.wire_bytes, stats.raw_bytes);  // no compression in memory
}

TEST(NetworkChannel, UncompressedRoundTrip) {
  const auto records = make_records(corpus::Compressibility::kLow, 50, 4000);
  auto ch = make_network_channel(nullptr, CompressionSpec::none());
  pump(*ch, records);
  const auto stats = ch->stats();
  EXPECT_EQ(stats.records, 50u);
  EXPECT_GE(stats.wire_bytes, stats.raw_bytes);  // header overhead only
}

class NetworkStaticLevels : public ::testing::TestWithParam<int> {};

TEST_P(NetworkStaticLevels, CompressedRoundTrip) {
  const auto records = make_records(corpus::Compressibility::kHigh, 40, 8000);
  auto ch = make_network_channel(nullptr,
                                 CompressionSpec::fixed(GetParam()));
  pump(*ch, records);
  const auto stats = ch->stats();
  EXPECT_EQ(stats.records, 40u);
  if (GetParam() > 0) {
    EXPECT_LT(stats.wire_bytes, stats.raw_bytes / 2);  // HIGH compresses
    // Blocks carry the configured level.
    EXPECT_GT(stats.blocks_per_level.at(static_cast<std::size_t>(GetParam())),
              0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Levels, NetworkStaticLevels, ::testing::Range(0, 4));

TEST(NetworkChannel, AdaptiveSpecRoundTrip) {
  const auto records =
      make_records(corpus::Compressibility::kModerate, 60, 10000);
  auto ch = make_network_channel(
      nullptr, CompressionSpec::adaptive_default(common::SimTime::ms(50)),
      compress::CodecRegistry::standard(), 16 * 1024);
  pump(*ch, records);
  EXPECT_EQ(ch->stats().records, 60u);
}

TEST(NetworkChannel, ParallelWorkersRoundTrip) {
  const auto records = make_records(corpus::Compressibility::kHigh, 40, 8000);
  auto ch = make_network_channel(
      nullptr, CompressionSpec::fixed(2).with_workers(4),
      compress::CodecRegistry::standard(), 16 * 1024);
  pump(*ch, records);
  const auto stats = ch->stats();
  EXPECT_EQ(stats.records, 40u);
  EXPECT_LT(stats.wire_bytes, stats.raw_bytes / 2);
}

TEST(NetworkChannel, ParallelWireBytesMatchSerial) {
  const auto records =
      make_records(corpus::Compressibility::kModerate, 30, 6000);
  auto serial = make_network_channel(nullptr, CompressionSpec::fixed(1));
  pump(*serial, records);
  auto parallel = make_network_channel(
      nullptr, CompressionSpec::fixed(1).with_workers(3, /*depth=*/4));
  pump(*parallel, records);
  EXPECT_EQ(parallel->stats().wire_bytes, serial->stats().wire_bytes);
  EXPECT_EQ(parallel->stats().blocks_per_level,
            serial->stats().blocks_per_level);
}

TEST(NetworkChannel, StatsPollableMidRun) {
  // A monitor thread polls stats() while the writer task pumps records.
  // The writer's counters are atomics, so the polls race nothing (the
  // TSan sweep runs this test) and the final counts still add up.
  constexpr std::size_t kBlock = 16 * 1024;
  const auto records =
      make_records(corpus::Compressibility::kModerate, 200, 3000);
  auto ch = make_network_channel(nullptr, CompressionSpec::fixed(1),
                                 compress::CodecRegistry::standard(), kBlock);
  std::atomic<bool> done{false};
  std::uint64_t polls = 0;
  std::thread monitor([&] {
    std::uint64_t last_raw = 0;
    while (!done.load(std::memory_order_relaxed)) {
      const ChannelStats s = ch->stats();
      EXPECT_GE(s.raw_bytes, last_raw);
      last_raw = s.raw_bytes;
      ++polls;
      std::this_thread::yield();
    }
  });
  pump(*ch, records);
  done.store(true, std::memory_order_relaxed);
  monitor.join();

  common::Bytes serialized;
  for (const auto& r : records) append_record(serialized, r);
  const ChannelStats stats = ch->stats();
  EXPECT_GT(polls, 0u);
  EXPECT_EQ(stats.records, records.size());
  EXPECT_EQ(stats.raw_bytes, serialized.size());
  const std::uint64_t blocks = std::accumulate(
      stats.blocks_per_level.begin(), stats.blocks_per_level.end(),
      std::uint64_t{0});
  EXPECT_EQ(blocks, (serialized.size() + kBlock - 1) / kBlock);
  EXPECT_EQ(stats.blocks_per_level.at(1), blocks);
  EXPECT_LT(stats.wire_bytes, stats.raw_bytes);
}

TEST(NetworkChannel, AdaptiveWithWorkersRoundTrip) {
  const auto records =
      make_records(corpus::Compressibility::kModerate, 60, 10000);
  auto ch = make_network_channel(
      nullptr,
      CompressionSpec::adaptive_default(common::SimTime::ms(50))
          .with_workers(2),
      compress::CodecRegistry::standard(), 16 * 1024);
  pump(*ch, records);
  EXPECT_EQ(ch->stats().records, 60u);
}

TEST(NetworkChannel, ThrottledLinkSharedByTwoChannels) {
  auto link = std::make_shared<core::LinkShare>(50e6);
  auto ch1 = make_network_channel(link, CompressionSpec::none());
  auto ch2 = make_network_channel(link, CompressionSpec::none());
  const auto records = make_records(corpus::Compressibility::kLow, 20, 50000);
  std::thread t1([&] { pump(*ch1, records); });
  pump(*ch2, records);
  t1.join();
  EXPECT_EQ(ch1->stats().records, 20u);
  EXPECT_EQ(ch2->stats().records, 20u);
}

TEST(FileChannel, RoundTripThroughSpillFile) {
  const std::string path = "/tmp/strato_test_filechannel.chan";
  const auto records = make_records(corpus::Compressibility::kHigh, 30, 20000);
  {
    auto ch = make_file_channel(path, CompressionSpec::fixed(1));
    pump(*ch, records);
    const auto stats = ch->stats();
    EXPECT_EQ(stats.records, 30u);
    EXPECT_LT(stats.wire_bytes, stats.raw_bytes / 2);
  }
  std::remove(path.c_str());
}

TEST(FileChannel, ReaderWaitsForWriterClose) {
  const std::string path = "/tmp/strato_test_filechannel_wait.chan";
  auto ch = make_file_channel(path, CompressionSpec::none());
  std::thread slow_writer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    ch->writer().emit(common::as_bytes("late record"));
    ch->writer().close();
  });
  const auto rec = ch->reader().next();  // must block until close
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(common::to_string(*rec), "late record");
  EXPECT_FALSE(ch->reader().next().has_value());
  slow_writer.join();
  std::remove(path.c_str());
}

TEST(FileChannel, EmptyStream) {
  const std::string path = "/tmp/strato_test_filechannel_empty.chan";
  auto ch = make_file_channel(path, CompressionSpec::fixed(2));
  ch->writer().close();
  EXPECT_FALSE(ch->reader().next().has_value());
  std::remove(path.c_str());
}

TEST(Channels, LargeRecordsSpanningManyBlocks) {
  // A single record larger than the 16 KB block size must be split across
  // frames and reassembled.
  auto gen = corpus::make_generator(corpus::Compressibility::kModerate, 5);
  const auto big = corpus::take(*gen, 300000);
  auto ch = make_network_channel(nullptr, CompressionSpec::fixed(1),
                                 compress::CodecRegistry::standard(),
                                 16 * 1024);
  std::thread producer([&] {
    ch->writer().emit(big);
    ch->writer().close();
  });
  const auto rec = ch->reader().next();
  producer.join();
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(*rec, big);
}

}  // namespace
}  // namespace strato::dataflow
