// Failure-path integration tests: corrupted spill files, corrupted wire
// bytes, and parallel network channels between one vertex pair.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>

#include "common/spsc_ring.h"
#include "core/baselines.h"
#include "core/stream.h"
#include "dataflow/executor.h"
#include "dataflow/stdtasks.h"

namespace strato {
namespace {

using dataflow::ChannelType;
using dataflow::CompressionSpec;

TEST(FaultInjection, CorruptedSpillFileFailsTheJobCleanly) {
  const std::string path = "/tmp/strato_fault_spill.chan";
  // Two-phase: first run a writer-only job to create the spill, corrupt
  // it on disk, then run the reader and expect a clean, reported failure.
  {
    auto ch = dataflow::make_file_channel(path, CompressionSpec::fixed(1));
    auto gen = corpus::make_generator(corpus::Compressibility::kModerate, 1);
    for (int i = 0; i < 20; ++i) {
      ch->writer().emit(corpus::take(*gen, 5000));
    }
    ch->writer().close();
    // Corrupt a payload byte in the middle of the file.
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f);
    f.seekp(2000);
    f.put('\x5A');
    f.close();
    bool failed = false;
    int records = 0;
    try {
      while (ch->reader().next()) ++records;
    } catch (const compress::CodecError&) {
      failed = true;
    }
    EXPECT_TRUE(failed);
    EXPECT_LT(records, 20);
  }
  std::remove(path.c_str());
}

TEST(FaultInjection, ExecutorReportsFailingTaskWithoutHanging) {
  // A task that throws mid-stream (e.g. on a corrupt record) must fail
  // the job with its error reported, while the downstream sink terminates
  // on EOF instead of hanging.
  std::atomic<std::uint64_t> records{0}, bytes{0};
  dataflow::JobGraph g2;
  const int s2 = g2.add_vertex("src", [] {
    return std::make_unique<dataflow::CorpusSource>(
        corpus::Compressibility::kHigh, 50000, 1000);
  });
  const int poisoned = g2.add_vertex("poisoned", [] {
    return std::make_unique<dataflow::MapTask>(
        [n = 0](common::Bytes rec) mutable {
          if (++n == 25) throw compress::CodecError("poisoned record");
          return rec;
        });
  });
  const int d2 = g2.add_vertex("sink", [&] {
    return std::make_unique<dataflow::CountingSink>(records, bytes);
  });
  g2.connect(s2, poisoned, ChannelType::kInMemory);
  g2.connect(poisoned, d2, ChannelType::kInMemory);
  dataflow::Executor exec;
  const auto stats = exec.execute(g2);
  EXPECT_FALSE(stats.ok());
  EXPECT_NE(stats.error.find("poisoned"), std::string::npos);
}

TEST(FaultInjection, WireCorruptionDetectedByReceiver) {
  // Compress blocks, flip bytes "on the wire", feed the receiver: every
  // outcome must be a CodecError or a checksum-clean block, never silent
  // damage.
  const auto& reg = compress::CodecRegistry::standard();
  auto gen = corpus::make_generator(corpus::Compressibility::kModerate, 4);
  common::Bytes wire;
  for (int i = 0; i < 5; ++i) {
    const auto frame =
        compress::encode_block(*reg.level(1).codec, 1,
                               corpus::take(*gen, 30000));
    wire.insert(wire.end(), frame.begin(), frame.end());
  }
  common::Xoshiro256 rng(5);
  int detected = 0;
  for (int trial = 0; trial < 30; ++trial) {
    auto bad = wire;
    bad[rng.below(bad.size())] ^= static_cast<std::uint8_t>(1 + rng.below(255));
    core::DecompressingReader reader(reg);
    reader.feed(bad);
    try {
      while (reader.next_block_view()) {
      }
    } catch (const compress::CodecError&) {
      ++detected;
    }
  }
  EXPECT_GT(detected, 20);
}

TEST(Shuffle, ParallelChannelsCarryEveryRecord) {
  // src -> 3 parallel compressed network channels -> sink: the source
  // broadcasts every record to each lane and the sink drains every gate,
  // so each lane delivers the full stream.
  constexpr int kRecords = 3000;
  constexpr int kLanes = 3;
  std::uint64_t payload_bytes = 0;
  std::atomic<std::uint64_t> records{0}, bytes{0};
  dataflow::JobGraph g;
  const int src = g.add_vertex("src", [&] {
    int n = 0;
    return std::make_unique<dataflow::FunctionSource>(
        [&, n]() mutable -> std::optional<common::Bytes> {
          if (n >= kRecords) return std::nullopt;
          const std::string payload = "record-" + std::to_string(n++);
          payload_bytes += payload.size();
          const auto b = common::as_bytes(payload);
          return common::Bytes(b.begin(), b.end());
        });
  });
  const int sink = g.add_vertex("sink", [&] {
    return std::make_unique<dataflow::CountingSink>(records, bytes);
  });
  for (int lane = 0; lane < kLanes; ++lane) {
    g.connect(src, sink, ChannelType::kNetwork, CompressionSpec::fixed(1));
  }

  dataflow::ExecutorConfig cfg;
  cfg.shared_link_bytes_s = 100e6;
  dataflow::Executor exec(cfg);
  const auto stats = exec.execute(g);
  ASSERT_TRUE(stats.ok()) << stats.error;
  EXPECT_EQ(records.load(), std::uint64_t{kLanes} * kRecords);
  EXPECT_EQ(bytes.load(), kLanes * payload_bytes);
  ASSERT_EQ(stats.channels.size(), static_cast<std::size_t>(kLanes));
  for (const auto& lane : stats.channels) {
    EXPECT_EQ(lane.records, static_cast<std::uint64_t>(kRecords));
  }
}

TEST(QueuePolicyIntegration, DrivesARealPipeline) {
  // The Jeannot-style baseline wired to a genuine FIFO between the
  // compressor and a slow drainer thread: the fill level is a live
  // signal, not a fake probe.
  common::SpscRing<common::Bytes> fifo(16);
  std::atomic<bool> done{false};
  std::thread drainer([&] {
    while (auto block = fifo.pop()) {
      // ~8 MB/s drain.
      std::this_thread::sleep_for(std::chrono::microseconds(
          block->size() / 8));
    }
    done = true;
  });

  class RingSink final : public core::ByteSink {
   public:
    explicit RingSink(common::SpscRing<common::Bytes>& ring) : ring_(ring) {}
    void write(common::ByteSpan data) override {
      ring_.push(common::Bytes(data.begin(), data.end()));
    }

   private:
    common::SpscRing<common::Bytes>& ring_;
  };

  RingSink sink(fifo);
  core::QueuePolicy policy([&] { return fifo.fill(); }, 4,
                           common::SimTime::ms(50));
  common::SteadyClock clock;
  core::CompressingWriter writer(sink, compress::CodecRegistry::standard(),
                                 policy, clock, 64 * 1024);
  auto gen = corpus::make_generator(corpus::Compressibility::kHigh, 6);
  common::Bytes chunk(64 * 1024);
  for (int i = 0; i < 160; ++i) {
    gen->generate(chunk);
    writer.write(chunk);
  }
  writer.flush();
  fifo.close();
  drainer.join();
  EXPECT_TRUE(done.load());
  // The queue backs up behind the slow drainer, so the policy must have
  // raised the level above 0 at some point; compressed blocks exist.
  std::uint64_t compressed = 0;
  for (std::size_t l = 1; l < writer.blocks_per_level().size(); ++l) {
    compressed += writer.blocks_per_level()[l];
  }
  EXPECT_GT(compressed, 0u);
}

}  // namespace
}  // namespace strato
