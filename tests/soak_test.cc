// Soak test: the real-time adaptive pipeline under a link whose rate is
// re-rolled every ~150 ms — several regime changes per second for a few
// seconds, checking integrity, liveness and decision sanity throughout.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "common/checksum.h"
#include "common/rng.h"
#include "core/policy.h"
#include "core/stream.h"
#include "core/throttled_pipe.h"
#include "corpus/generator.h"
#include "corpus/schedule.h"
#include "verify/seed.h"

namespace strato {
namespace {

TEST(Soak, AdaptivePipelineSurvivesViolentLinkChanges) {
  // Replayable: STRATO_SOAK_SEED drives both the link chaos and the
  // workload generator (printed up front so a red run can be replayed).
  const std::uint64_t seed = verify::announce_seed(
      "STRATO_SOAK_SEED", verify::seed_from_env("STRATO_SOAK_SEED", 1));
  SCOPED_TRACE("STRATO_SOAK_SEED=" + std::to_string(seed));
  constexpr std::size_t kTotal = 128 << 20;
  auto link = std::make_shared<core::LinkShare>(20e6);
  core::ThrottledPipe pipe(link);

  // Chaos monkey: re-roll the link rate between 2 and 200 MB/s.
  std::atomic<bool> stop{false};
  std::thread chaos([&] {
    common::Xoshiro256 rng(seed);
    while (!stop.load()) {
      link->set_rate(rng.uniform(2e6, 200e6));
      std::this_thread::sleep_for(std::chrono::milliseconds(150));
    }
  });

  // Receiver verifies everything.
  std::uint64_t recv_digest = 0;
  std::atomic<std::uint64_t> recv_bytes{0};
  std::thread receiver([&] {
    core::DecompressingReader reader(compress::CodecRegistry::standard());
    common::Xxh64State hash;
    for (;;) {
      const auto chunk = pipe.read(128 * 1024);
      if (chunk.empty()) break;
      reader.feed(chunk);
      while (auto block = reader.next_block_view()) {
        hash.update(block->data);
        recv_bytes += block->data.size();
      }
    }
    recv_digest = hash.digest();
  });

  // Sender: multi-phase workload + adaptive policy with a fast window.
  core::AdaptiveConfig cfg;
  cfg.num_levels =
      static_cast<int>(compress::CodecRegistry::standard().level_count());
  core::AdaptivePolicy policy(cfg, common::SimTime::ms(100));
  std::atomic<int> decisions{0};
  policy.set_trace([&](common::SimTime, double, const core::Decision& d) {
    decisions.fetch_add(1);
    ASSERT_GE(d.level, 0);
    ASSERT_LT(d.level, cfg.num_levels);
  });
  common::SteadyClock clock;
  core::CompressingWriter writer(pipe, compress::CodecRegistry::standard(),
                                 policy, clock);
  corpus::ScheduledGenerator gen(
      corpus::parse_schedule("HIGH:12M,LOW:6M,MODERATE:12M"), seed + 1);
  common::Xxh64State sent;
  common::Bytes chunk(128 * 1024);
  for (std::size_t done = 0; done < kTotal; done += chunk.size()) {
    gen.generate(chunk);
    sent.update(chunk);
    writer.write(chunk);
  }
  writer.flush();
  pipe.close();
  receiver.join();
  stop = true;
  chaos.join();

  EXPECT_EQ(recv_bytes.load(), kTotal);
  EXPECT_EQ(recv_digest, sent.digest());
  EXPECT_GT(decisions.load(), 5);  // the controller actually ran
}

}  // namespace
}  // namespace strato
