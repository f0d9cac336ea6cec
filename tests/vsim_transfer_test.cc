// Transfer-experiment invariants: the Table II shapes, the paper's
// headline claims, determinism and bookkeeping.
#include <gtest/gtest.h>

#include "compress/framing.h"
#include "expkit/paper_data.h"
#include "expkit/policies.h"
#include "vsim/file_transfer.h"
#include "vsim/packet_sim.h"
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
      (cfg.total_bytes + compress::kDefaultBlockSize - 1) /
      compress::kDefaultBlockSize;
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

// --- exact pins -------------------------------------------------------------
//
// Each simulator is a deterministic function of its seed. These cells pin
// their outputs bit for bit (EXPECT_EQ on doubles), so a refactor that
// claims to leave a model unchanged is checked here rather than by
// comparing bench output; a deliberate model change re-records them.

core::AdaptivePolicy dynamic_policy() {
  core::AdaptiveConfig cfg;
  cfg.num_levels = CodecModel::kNumLevels;
  return core::AdaptivePolicy(cfg, common::SimTime::seconds(2));
}

struct FluidPin {
  corpus::Compressibility data;
  int bg;
  const char* policy;
  double completion_s;
  std::uint64_t wire_bytes;
  std::vector<std::uint64_t> blocks_per_level;
};

TEST(TransferGolden, FluidModelCellsReproduceExactly) {
  constexpr auto kHigh = corpus::Compressibility::kHigh;
  constexpr auto kLow = corpus::Compressibility::kLow;
  const FluidPin pins[] = {
      {kHigh, 0, "NO", 23.737231221000002, 1992108240, {15259, 0, 0, 0}},
      {kHigh, 0, "DYNAMIC", 8.2269138799999997, 464667842,
       {1287, 13709, 263, 0}},
      {kHigh, 3, "NO", 67.197062009000007, 1992108240, {15259, 0, 0, 0}},
      {kHigh, 3, "DYNAMIC", 13.132948374000001, 358922273,
       {460, 12666, 2133, 0}},
      {kLow, 0, "NO", 23.737231221000002, 1992108240, {15259, 0, 0, 0}},
      {kLow, 0, "DYNAMIC", 29.138534641000003, 1913648386,
       {5148, 8949, 1162, 0}},
      {kLow, 3, "NO", 67.197062009000007, 1992108240, {15259, 0, 0, 0}},
      {kLow, 3, "DYNAMIC", 67.744275051000002, 1883427128,
       {1371, 2412, 11063, 413}},
  };
  for (const FluidPin& pin : pins) {
    TransferExperiment exp(small(pin.data, pin.bg));
    const auto policy = expkit::make_policy(pin.policy, exp);
    const auto res = exp.run(*policy);
    const std::string cell = std::string(corpus::to_string(pin.data)) +
                             " bg=" + std::to_string(pin.bg) + " " +
                             pin.policy;
    EXPECT_EQ(res.completion_s, pin.completion_s) << cell;
    EXPECT_EQ(res.wire_bytes, pin.wire_bytes) << cell;
    EXPECT_EQ(res.blocks_per_level, pin.blocks_per_level) << cell;
  }
}

TEST(TransferGolden, PacketModelCellReproducesExactly) {
  PacketSimConfig cfg;
  cfg.data = corpus::Compressibility::kModerate;
  cfg.bg_flows = 1;
  cfg.total_bytes = 500'000'000ULL;
  cfg.seed = 77;
  auto policy = dynamic_policy();
  const auto res = run_packet_transfer(cfg, policy);
  EXPECT_EQ(res.completion_s, 5.8314711890000002);
  EXPECT_EQ(res.wire_bytes, 279487552u);
  EXPECT_EQ(res.fg_packets, 188325u);
  EXPECT_EQ(res.bg_packets, 155901u);
}

TEST(TransferGolden, XenFileWriteCellReproducesExactly) {
  FileTransferConfig cfg;
  cfg.tech = VirtTech::kXenPara;
  cfg.data = corpus::Compressibility::kHigh;
  cfg.total_bytes = 2'000'000'000ULL;
  auto policy = dynamic_policy();
  const auto res = run_file_transfer(cfg, policy);
  EXPECT_EQ(res.completion_s, 6.9645018500000004);
  EXPECT_EQ(res.drained_s, 13.493555537500001);
  EXPECT_EQ(res.disk_bytes, 522324295u);
  EXPECT_EQ(res.blocks_per_level,
            (std::vector<std::uint64_t>{1795, 13464, 0, 0}));
}

}  // namespace
}  // namespace strato::vsim
