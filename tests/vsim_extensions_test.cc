// Extension models: dynamic background traffic and the file-I/O transfer
// experiment (the paper's future-work direction).
#include <gtest/gtest.h>

#include "compress/framing.h"
#include "expkit/policies.h"
#include "vsim/bgtraffic.h"
#include "vsim/file_transfer.h"
#include "vsim/transfer.h"

namespace strato::vsim {
namespace {

using common::SimTime;

// --- background traffic ---------------------------------------------------------

TEST(BgTraffic, DisabledByDefault) {
  BgTrafficConfig cfg;
  EXPECT_FALSE(cfg.enabled());
  BgTrafficProcess p(cfg, 1);
  EXPECT_EQ(p.flows_at(SimTime::seconds(100)), 0);
}

TEST(BgTraffic, DeterministicSteps) {
  BgTrafficConfig cfg;
  cfg.steps = {{0.0, 0}, {10.0, 2}, {20.0, 1}, {30.0, 3}};
  BgTrafficProcess p(cfg, 1);
  EXPECT_EQ(p.flows_at(SimTime::seconds(5)), 0);
  EXPECT_EQ(p.flows_at(SimTime::seconds(10)), 2);
  EXPECT_EQ(p.flows_at(SimTime::seconds(19.9)), 2);
  EXPECT_EQ(p.flows_at(SimTime::seconds(25)), 1);
  EXPECT_EQ(p.flows_at(SimTime::seconds(1000)), 3);
}

TEST(BgTraffic, StepsCanBeSkippedOver) {
  BgTrafficConfig cfg;
  cfg.steps = {{1.0, 5}, {2.0, 1}};
  BgTrafficProcess p(cfg, 1);
  // Jump straight past both steps.
  EXPECT_EQ(p.flows_at(SimTime::seconds(10)), 1);
}

TEST(BgTraffic, BirthDeathStaysWithinBounds) {
  BgTrafficConfig cfg;
  cfg.arrival_per_s = 0.5;
  cfg.mean_holding_s = 4.0;
  cfg.max_flows = 3;
  BgTrafficProcess p(cfg, 7);
  int max_seen = 0, changes = 0, prev = 0;
  for (int t = 0; t < 2000; ++t) {
    const int f = p.flows_at(SimTime::seconds(t * 0.5));
    ASSERT_GE(f, 0);
    ASSERT_LE(f, 3);
    max_seen = std::max(max_seen, f);
    if (f != prev) ++changes;
    prev = f;
  }
  EXPECT_GT(max_seen, 0);   // flows do arrive
  EXPECT_GT(changes, 20);   // and churn over time
}

TEST(BgTraffic, BirthDeathLongRunMeanMatchesErlang) {
  // Offered load a = lambda * holding = 0.25 * 8 = 2; with a generous cap
  // the mean flow count approaches the offered load.
  BgTrafficConfig cfg;
  cfg.arrival_per_s = 0.25;
  cfg.mean_holding_s = 8.0;
  cfg.max_flows = 20;
  BgTrafficProcess p(cfg, 3);
  double sum = 0;
  constexpr int kSamples = 40000;
  for (int i = 0; i < kSamples; ++i) {
    sum += p.flows_at(SimTime::seconds(i * 0.5));
  }
  EXPECT_NEAR(sum / kSamples, 2.0, 0.4);
}

TEST(BgTraffic, DeterministicPerSeed) {
  BgTrafficConfig cfg;
  cfg.arrival_per_s = 0.3;
  cfg.mean_holding_s = 5.0;
  BgTrafficProcess a(cfg, 9), b(cfg, 9);
  for (int t = 0; t < 500; ++t) {
    ASSERT_EQ(a.flows_at(SimTime::seconds(t)), b.flows_at(SimTime::seconds(t)));
  }
}

TEST(TransferWithBgTraffic, StepScheduleSlowsTheMiddle) {
  // 0 flows, then 3 flows in the middle third, then 0 again: completion
  // must land between the pure 0-flow and pure 3-flow runs.
  TransferConfig cfg;
  cfg.data = corpus::Compressibility::kLow;
  cfg.total_bytes = 2'000'000'000ULL;
  cfg.seed = 5;

  TransferExperiment solo(cfg);
  auto p0 = expkit::make_policy("NO", solo);
  const double t_solo = solo.run(*p0).completion_s;

  auto cfg3 = cfg;
  cfg3.bg_flows = 3;
  TransferExperiment busy(cfg3);
  auto p3 = expkit::make_policy("NO", busy);
  const double t_busy = busy.run(*p3).completion_s;

  auto cfg_dyn = cfg;
  cfg_dyn.bg_traffic.steps = {{0.0, 0}, {8.0, 3}, {16.0, 0}};
  TransferExperiment dyn(cfg_dyn);
  auto pd = expkit::make_policy("NO", dyn);
  const double t_dyn = dyn.run(*pd).completion_s;

  EXPECT_GT(t_dyn, t_solo * 1.05);
  EXPECT_LT(t_dyn, t_busy);
}

TEST(TransferWithBgTraffic, AdaptiveFollowsContentionChanges) {
  // MODERATE data: at 0 flows the link is fast enough that LIGHT wins
  // narrowly; at heavy contention compression pays off strongly. The
  // adaptive policy must end up using compression for most blocks when
  // neighbours hammer the link for the second half of the run.
  TransferConfig cfg;
  cfg.data = corpus::Compressibility::kHigh;
  cfg.total_bytes = 4'000'000'000ULL;
  cfg.seed = 6;
  cfg.bg_traffic.steps = {{0.0, 0}, {10.0, 3}};
  TransferExperiment exp(cfg);
  auto policy = expkit::make_policy("DYNAMIC", exp);
  const auto res = exp.run(*policy);
  std::uint64_t compressed = 0, total = 0;
  for (std::size_t l = 0; l < res.blocks_per_level.size(); ++l) {
    total += res.blocks_per_level[l];
    if (l > 0) compressed += res.blocks_per_level[l];
  }
  EXPECT_GT(compressed, total / 2);
}

// --- file transfer -------------------------------------------------------------

TEST(FileTransfer, PlainDiskShapesMatchTableIIIntuition) {
  // On a cache-less disk (KVM paravirt), compression helps HIGH data
  // (disk is the bottleneck) and hurts with HEAVY.
  FileTransferConfig cfg;
  cfg.tech = VirtTech::kKvmPara;
  cfg.data = corpus::Compressibility::kHigh;
  cfg.total_bytes = 2'000'000'000ULL;

  core::StaticPolicy no(0, "NO"), light(1, "LIGHT"), heavy(3, "HEAVY");
  const double t_no = run_file_transfer(cfg, no).completion_s;
  const double t_light = run_file_transfer(cfg, light).completion_s;
  const double t_heavy = run_file_transfer(cfg, heavy).completion_s;
  EXPECT_LT(t_light, t_no);
  EXPECT_GT(t_heavy, t_light);
}

TEST(FileTransfer, AccountsAllBytes) {
  FileTransferConfig cfg;
  cfg.tech = VirtTech::kNative;
  cfg.data = corpus::Compressibility::kModerate;
  cfg.total_bytes = 500'000'000ULL;
  core::StaticPolicy light(1, "LIGHT");
  const auto res = run_file_transfer(cfg, light);
  EXPECT_EQ(res.raw_bytes, cfg.total_bytes);
  EXPECT_LT(res.disk_bytes, res.raw_bytes);
  std::uint64_t blocks = 0;
  for (const auto b : res.blocks_per_level) blocks += b;
  EXPECT_EQ(blocks, (cfg.total_bytes + compress::kDefaultBlockSize - 1) /
                        compress::kDefaultBlockSize);
  EXPECT_EQ(res.final_dirty_bytes, 0.0);
  EXPECT_DOUBLE_EQ(res.drained_s, res.completion_s);
}

TEST(FileTransfer, XenCacheLeavesDirtyDataAndInflatesApparentRate) {
  FileTransferConfig cfg;
  cfg.tech = VirtTech::kXenPara;
  cfg.data = corpus::Compressibility::kLow;
  cfg.total_bytes = 4'000'000'000ULL;
  core::StaticPolicy no(0, "NO");
  const auto res = run_file_transfer(cfg, no);
  EXPECT_GT(res.final_dirty_bytes, 0.0);
  EXPECT_GT(res.drained_s, res.completion_s);

  // A short observation that fits into the host cache reports an apparent
  // rate far beyond the physical disk — the paper's "spuriously high"
  // finding and the reason several GB must be observed for a meaningful
  // mean.
  FileTransferConfig short_cfg = cfg;
  short_cfg.total_bytes = 1'000'000'000ULL;  // < 1.5 GB dirty budget
  core::StaticPolicy no2(0, "NO");
  const auto short_res = run_file_transfer(short_cfg, no2);
  const double apparent_rate =
      static_cast<double>(short_res.raw_bytes) / short_res.completion_s;
  EXPECT_GT(apparent_rate,
            1.3 * profile(VirtTech::kXenPara).disk_write_bytes_s);
}

TEST(FileTransfer, AdaptiveRunsOnTheCachePath) {
  FileTransferConfig cfg;
  cfg.tech = VirtTech::kXenPara;
  cfg.data = corpus::Compressibility::kHigh;
  cfg.total_bytes = 2'000'000'000ULL;
  cfg.record_timeline = true;
  core::AdaptiveConfig acfg;
  acfg.num_levels = CodecModel::kNumLevels;
  core::AdaptivePolicy dynamic(acfg, common::SimTime::seconds(2));
  const auto res = run_file_transfer(cfg, dynamic);
  EXPECT_EQ(res.raw_bytes, cfg.total_bytes);
  EXPECT_TRUE(res.timeline.has("level"));
  EXPECT_TRUE(res.timeline.has("app_mb_s"));
}

TEST(FileTransfer, DeterministicPerSeed) {
  FileTransferConfig cfg;
  cfg.total_bytes = 300'000'000ULL;
  core::StaticPolicy no(0, "NO");
  const auto a = run_file_transfer(cfg, no);
  core::StaticPolicy no2(0, "NO");
  const auto b = run_file_transfer(cfg, no2);
  EXPECT_DOUBLE_EQ(a.completion_s, b.completion_s);
}

}  // namespace
}  // namespace strato::vsim
