// Transfer-experiment invariants: the Table II shapes, the paper's
// headline claims, determinism and bookkeeping.
#include <gtest/gtest.h>

#include "expkit/paper_data.h"
#include "expkit/policies.h"
#include "vsim/transfer.h"

namespace strato::vsim {
namespace {

/// Small-scale config (2 GB) for fast tests; shapes are scale-free.
TransferConfig small(corpus::Compressibility data, int bg) {
  TransferConfig cfg;
  cfg.data = data;
  cfg.bg_flows = bg;
  cfg.total_bytes = 2'000'000'000ULL;
  cfg.seed = 11;
  return cfg;
}

double run_policy(const TransferConfig& cfg, const std::string& name) {
  TransferExperiment exp(cfg);
  const auto policy = expkit::make_policy(name, exp);
  return exp.run(*policy).completion_s;
}

TEST(Transfer, CompletionMatchesLinkRateWithoutCompression) {
  const auto cfg = small(corpus::Compressibility::kModerate, 0);
  const double secs = run_policy(cfg, "NO");
  // ~2 GB over ~87.5 MB/s (KVM paravirt profile) ≈ 23 s.
  EXPECT_NEAR(secs, 23.0, 4.0);
}

TEST(Transfer, ContentionFollowsCalibratedWeights) {
  // NO-compression completion times must scale like 1 + 0.65 k — the
  // calibration that reproduces the paper's 569/908/1393/1642 column.
  const double base =
      run_policy(small(corpus::Compressibility::kHigh, 0), "NO");
  for (int k = 1; k <= 3; ++k) {
    const double with_k =
        run_policy(small(corpus::Compressibility::kHigh, k), "NO");
    EXPECT_NEAR(with_k / base, 1.0 + 0.65 * k, 0.12 * (1.0 + 0.65 * k))
        << "k=" << k;
  }
}

TEST(Transfer, LightWinsOnHighCompressibility) {
  const auto cfg = small(corpus::Compressibility::kHigh, 0);
  const double no = run_policy(cfg, "NO");
  const double light = run_policy(cfg, "LIGHT");
  EXPECT_LT(light, no / 2.0);  // compression pays off big (paper: 2.3-4.6x)
}

TEST(Transfer, HeavyLosesEverywhereOnFastLinks) {
  for (const auto c :
       {corpus::Compressibility::kHigh, corpus::Compressibility::kModerate,
        corpus::Compressibility::kLow}) {
    const auto cfg = small(c, 0);
    EXPECT_GT(run_policy(cfg, "HEAVY"), run_policy(cfg, "NO"))
        << corpus::to_string(c);
  }
}

TEST(Transfer, CompressionCannotHelpIncompressibleData) {
  const auto cfg = small(corpus::Compressibility::kLow, 0);
  const double no = run_policy(cfg, "NO");
  for (const char* p : {"LIGHT", "MEDIUM", "HEAVY"}) {
    EXPECT_GT(run_policy(cfg, p), no * 0.95) << p;
  }
}

class DynamicBound
    : public ::testing::TestWithParam<
          std::tuple<corpus::Compressibility, int>> {};

TEST_P(DynamicBound, WithinPaperBoundOfBestStatic) {
  // The paper's headline: DYNAMIC completion times were at most 22 %
  // worse than the fastest static level. At the reduced 2 GB test scale
  // the initial probing phase weighs ~25x more than at 50 GB, so we test
  // a relaxed 40 % bound here; the full-scale Table II bench checks the
  // paper's 22 %.
  const auto [data, bg] = GetParam();
  const auto cfg = small(data, bg);
  double best = 1e18;
  for (const char* p : {"NO", "LIGHT", "MEDIUM", "HEAVY"}) {
    best = std::min(best, run_policy(cfg, p));
  }
  const double dynamic = run_policy(cfg, "DYNAMIC");
  EXPECT_LE(dynamic, best * 1.40)
      << corpus::to_string(data) << " bg=" << bg;
}

INSTANTIATE_TEST_SUITE_P(
    Cells, DynamicBound,
    ::testing::Combine(::testing::Values(corpus::Compressibility::kHigh,
                                         corpus::Compressibility::kModerate,
                                         corpus::Compressibility::kLow),
                       ::testing::Values(0, 2)));

TEST(Transfer, DynamicBeatsNoCompressionByLargeFactorUnderContention) {
  // "improved the overall application throughput up to a factor of 4".
  const auto cfg = small(corpus::Compressibility::kHigh, 3);
  const double no = run_policy(cfg, "NO");
  const double dyn = run_policy(cfg, "DYNAMIC");
  EXPECT_GT(no / dyn, 3.0);
}

TEST(Transfer, DeterministicForSameSeed) {
  const auto cfg = small(corpus::Compressibility::kModerate, 1);
  EXPECT_DOUBLE_EQ(run_policy(cfg, "DYNAMIC"), run_policy(cfg, "DYNAMIC"));
  auto cfg2 = cfg;
  cfg2.seed = 12;
  EXPECT_NE(run_policy(cfg, "DYNAMIC"), run_policy(cfg2, "DYNAMIC"));
}

TEST(Transfer, BookkeepingIsConsistent) {
  auto cfg = small(corpus::Compressibility::kHigh, 0);
  TransferExperiment exp(cfg);
  const auto policy = expkit::make_policy("DYNAMIC", exp);
  const auto res = exp.run(*policy);
  EXPECT_EQ(res.raw_bytes, cfg.total_bytes);
  EXPECT_GT(res.wire_bytes, 0u);
  EXPECT_LT(res.wire_bytes, res.raw_bytes);  // HIGH data compresses
  std::uint64_t blocks = 0;
  for (const auto b : res.blocks_per_level) blocks += b;
  const std::uint64_t expected_blocks =
      (cfg.total_bytes + cfg.block_size - 1) / cfg.block_size;
  EXPECT_EQ(blocks, expected_blocks);
  EXPECT_GT(res.mean_host_cpu_busy, 0.0);
  EXPECT_GT(res.mean_vm_cpu_busy, 0.0);
}

TEST(Transfer, VmCpuDisplayIsBelowHostTruth) {
  // KVM paravirt hides most I/O cost from the guest.
  auto cfg = small(corpus::Compressibility::kLow, 0);
  TransferExperiment exp(cfg);
  const auto policy = expkit::make_policy("NO", exp);
  const auto res = exp.run(*policy);
  EXPECT_LT(res.mean_vm_cpu_busy, res.mean_host_cpu_busy * 0.5);
}

TEST(Transfer, TimelineSeriesWhenRequested) {
  auto cfg = small(corpus::Compressibility::kHigh, 0);
  cfg.total_bytes = 500'000'000ULL;
  cfg.record_timeline = true;
  TransferExperiment exp(cfg);
  const auto policy = expkit::make_policy("DYNAMIC", exp);
  const auto res = exp.run(*policy);
  for (const char* s :
       {"app_mbit_s", "net_mbit_s", "level", "cpu_busy_vm", "cpu_busy_host"}) {
    EXPECT_TRUE(res.timeline.has(s)) << s;
    EXPECT_GT(res.timeline.series(s).size(), 0u) << s;
  }
}

TEST(Transfer, SegmentedWorkloadSwitchesCompressibility) {
  // Fig. 6 workload: a two-segment HIGH <-> LOW schedule, repeating; the
  // adaptive policy must compress during HIGH segments (wire << raw in
  // those segments) and mostly not during LOW. Net effect: wire bytes
  // land strictly between the two pure cases.
  TransferConfig cfg;
  cfg.schedule = {{corpus::Compressibility::kHigh, 200'000'000ULL},
                  {corpus::Compressibility::kLow, 200'000'000ULL}};
  cfg.total_bytes = 1'000'000'000ULL;
  TransferExperiment exp(cfg);
  const auto policy = expkit::make_policy("DYNAMIC", exp);
  const auto res = exp.run(*policy);
  EXPECT_LT(res.wire_bytes, cfg.total_bytes * 0.9);
  EXPECT_GT(res.wire_bytes, cfg.total_bytes * 0.3);
}

TEST(Transfer, RepeatedRunsReportSpread) {
  auto cfg = small(corpus::Compressibility::kModerate, 2);
  cfg.total_bytes = 500'000'000ULL;
  const auto rep = run_repeated(cfg, 4, [](TransferExperiment& exp) {
    return expkit::make_policy("NO", exp);
  });
  EXPECT_GT(rep.mean_s, 0.0);
  EXPECT_GE(rep.sd_s, 0.0);
  EXPECT_LT(rep.sd_s, rep.mean_s * 0.2);
}

TEST(Transfer, MetricBaselineRunsEndToEnd) {
  auto cfg = small(corpus::Compressibility::kHigh, 0);
  cfg.total_bytes = 500'000'000ULL;
  TransferExperiment exp(cfg);
  const auto policy = expkit::make_policy("METRIC", exp);
  const auto res = exp.run(*policy);
  EXPECT_GT(res.completion_s, 0.0);
}

TEST(Transfer, CodecSpeedFactorSlowsCompression) {
  auto cfg = small(corpus::Compressibility::kHigh, 0);
  cfg.total_bytes = 500'000'000ULL;
  const double fast = run_policy(cfg, "HEAVY");
  cfg.codec_speed_factor = 0.4;
  const double slow = run_policy(cfg, "HEAVY");
  EXPECT_GT(slow, fast * 2.0);
}

}  // namespace
}  // namespace strato::vsim
