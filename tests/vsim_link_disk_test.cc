// Link fluctuation, the single-link capacity series and the disk cache
// model.
#include <gtest/gtest.h>

#include "common/stats.h"
#include "vsim/disk.h"
#include "vsim/link.h"
#include "vsim/topology.h"

namespace strato::vsim {
namespace {

using common::SimTime;

TEST(Fluctuation, GaussianStaysNearOne) {
  FluctuationParams p;
  p.kind = FluctuationKind::kGaussian;
  p.sigma = 0.03;
  FluctuationProcess proc(p, 1);
  common::RunningStats s;
  for (int i = 0; i < 2000; ++i) {
    s.add(proc.factor(SimTime::ms(100 * i)));
  }
  EXPECT_NEAR(s.mean(), 1.0, 0.02);
  EXPECT_GT(s.min(), 0.3);
  EXPECT_LT(s.max(), 1.16);
}

TEST(Fluctuation, TwoStateSwingsWildly) {
  FluctuationParams p;
  p.kind = FluctuationKind::kTwoState;
  p.degraded_floor = 0.03;
  p.degraded_ceil = 0.45;
  p.mean_dwell_ms = 30.0;
  p.degraded_prob = 0.35;
  FluctuationProcess proc(p, 2);
  common::Sample s;
  for (int i = 0; i < 20000; ++i) {
    s.add(proc.factor(SimTime::ms(5 * i)));
  }
  // Big spread: some samples near full rate, some far below half.
  EXPECT_GT(s.quantile(0.9), 0.9);
  EXPECT_LT(s.quantile(0.1), 0.5);
  EXPECT_GT(s.stddev(), 0.2);
}

TEST(Fluctuation, DeterministicPerSeed) {
  FluctuationParams p;
  FluctuationProcess a(p, 42), b(p, 42), c(p, 43);
  double same = 0, diff = 0;
  for (int i = 0; i < 100; ++i) {
    const auto t = SimTime::ms(100 * i);
    const double fa = a.factor(t);
    if (fa == b.factor(t)) same += 1;
    if (fa != c.factor(t)) diff += 1;
  }
  EXPECT_EQ(same, 100);
  EXPECT_GT(diff, 90);
}

TEST(SingleLink, CapacityIsNominalTimesFluctuation) {
  // Link 0 of the degenerate topology keeps the caller's seed verbatim, so
  // its capacity is the profile's nominal rate times the series of a
  // FluctuationProcess with that seed: the calibrated Table II link.
  const VirtProfile& p = profile(VirtTech::kKvmPara);
  const Topology topo = Topology::single(p);
  LinkBank bank(topo, 5);
  FluctuationProcess fluct(p.net_fluct, 5);
  EXPECT_NEAR(bank.capacity(0, SimTime()), p.net_bytes_s,
              0.15 * p.net_bytes_s);
  for (int i = 0; i < 100; ++i) {
    const auto t = SimTime::ms(37 * i);
    EXPECT_EQ(bank.capacity(0, t), p.net_bytes_s * fluct.factor(t)) << i;
  }
}

// --- disk ---------------------------------------------------------------------

TEST(Disk, PlainDiskWritesAtNominalRate) {
  const VirtProfile& p = profile(VirtTech::kNative);
  Disk disk(p, 3);
  const auto dur = disk.write(92'000'000, SimTime());
  EXPECT_NEAR(dur.to_seconds(), 1.0, 0.2);
  EXPECT_EQ(disk.dirty_bytes(), 0.0);
}

TEST(Disk, XenCacheAbsorbsThenStalls) {
  const VirtProfile& p = profile(VirtTech::kXenPara);
  Disk disk(p, 4);
  SimTime now;
  common::Sample rates;
  const std::uint64_t chunk = 20'000'000;  // the paper's 20 MB timestamps
  for (std::uint64_t written = 0; written < 6'000'000'000ULL;
       written += chunk) {
    const SimTime dur = disk.write(chunk, now);
    now += dur;
    rates.add(static_cast<double>(chunk) / dur.to_seconds() / 1e6);  // MB/s
  }
  // Bimodal: cache-speed samples far above the physical disk and flush
  // samples collapsing to a few MB/s.
  EXPECT_GT(rates.max(), 300.0);
  EXPECT_LT(rates.min(), 10.0);
  // The spuriously high mean the paper calls out: above the physical disk.
  EXPECT_GT(rates.mean(), p.disk_write_bytes_s / 1e6);
  // And data is still dirty in the host cache at the end.
  EXPECT_GT(disk.dirty_bytes(), 0.0);
}

TEST(Disk, NonCachedProfilesNeverGoDirty) {
  for (const auto t :
       {VirtTech::kNative, VirtTech::kKvmFull, VirtTech::kKvmPara,
        VirtTech::kEc2}) {
    Disk disk(profile(t), 5);
    SimTime now;
    for (int i = 0; i < 100; ++i) {
      now += disk.write(20'000'000, now);
    }
    EXPECT_EQ(disk.dirty_bytes(), 0.0) << to_string(t);
  }
}

}  // namespace
}  // namespace strato::vsim
