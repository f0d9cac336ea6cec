// Fleet-engine invariants: deterministic replay, weighted max-min shares
// (the single-link case against SharedLink's formula), per-tenant
// fairness, admission control, the flow limit, the hard stop and the
// adaptive ladder bound.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "vsim/fleet.h"
#include "vsim/link.h"
#include "vsim/profile.h"
#include "vsim/topology.h"

namespace strato::vsim {
namespace {

using common::SimTime;

// ---------------------------------------------------------------------------
// Max-min allocation.
// ---------------------------------------------------------------------------

TEST(MaxMin, DegenerateSingleLinkMatchesSharedLinkFormula) {
  // One weight-1 foreground flow against k weight-0.65 background flows
  // on the single-link topology must reproduce SharedLink's closed form
  // capacity / (1 + 0.65 k), fluctuation series included (LinkBank link 0
  // shares the seed verbatim).
  const VirtProfile& prof = profile(VirtTech::kKvmPara);
  const std::uint64_t seed = 42;
  for (const int k : {0, 2, 6}) {
    Topology topo = Topology::single(prof);
    LinkBank bank(topo, seed);
    MaxMinAllocator alloc(topo);
    SharedLink link(prof, k, seed);

    std::vector<std::uint32_t> path(static_cast<std::size_t>(k) + 1, 0);
    std::vector<double> weight(static_cast<std::size_t>(k) + 1,
                               kBackgroundFlowWeight);
    weight[0] = 1.0;
    std::vector<std::uint32_t> active;
    for (std::uint32_t f = 0; f <= static_cast<std::uint32_t>(k); ++f) {
      active.push_back(f);
    }
    std::vector<double> rate(active.size(), 0.0);
    std::vector<double> caps;

    for (int step = 1; step <= 8; ++step) {
      const SimTime t = SimTime::seconds(0.5 * step);
      bank.capacities(t, caps);
      alloc.allocate(caps, path, weight, active, rate);
      const double want = link.fg_rate(t);
      EXPECT_NEAR(rate[0], want, 1e-6 * want) << "k=" << k << " t=" << t;
    }
  }
}

TEST(MaxMin, RatesAreWeightProportionalOnOneLink) {
  Topology topo;
  const auto l = topo.add_link(LinkSpec{"l", 100.0, {}});
  topo.add_path({l});
  MaxMinAllocator alloc(topo);

  const std::vector<double> caps = {100.0};
  const std::vector<std::uint32_t> path = {0, 0, 0};
  const std::vector<double> weight = {2.0, 1.0, 1.0};
  const std::vector<std::uint32_t> active = {0, 1, 2};
  std::vector<double> rate(3, 0.0);
  alloc.allocate(caps, path, weight, active, rate);
  EXPECT_NEAR(rate[0], 50.0, 1e-9);
  EXPECT_NEAR(rate[1], 25.0, 1e-9);
  EXPECT_NEAR(rate[2], 25.0, 1e-9);
}

TEST(MaxMin, BottleneckFreezesAndReleasesCapacity) {
  // Two links in sequence: flow 0 crosses both, flow 1 only the wide one.
  // The narrow link caps flow 0 at 10; flow 1 then takes the released
  // capacity of the wide link (90) — classic progressive filling.
  Topology topo;
  const auto narrow = topo.add_link(LinkSpec{"narrow", 10.0, {}});
  const auto wide = topo.add_link(LinkSpec{"wide", 100.0, {}});
  topo.add_path({narrow, wide});  // path 0
  topo.add_path({wide});          // path 1
  MaxMinAllocator alloc(topo);

  const std::vector<double> caps = {10.0, 100.0};
  const std::vector<std::uint32_t> path = {0, 1};
  const std::vector<double> weight = {1.0, 1.0};
  const std::vector<std::uint32_t> active = {0, 1};
  std::vector<double> rate(2, 0.0);
  alloc.allocate(caps, path, weight, active, rate);
  EXPECT_NEAR(rate[0], 10.0, 1e-9);
  EXPECT_NEAR(rate[1], 90.0, 1e-9);
}

// ---------------------------------------------------------------------------
// Fleet runs.
// ---------------------------------------------------------------------------

FleetConfig small_fleet(std::uint64_t seed) {
  Topology::FleetShape shape;
  shape.racks = 2;
  shape.hosts_per_rack = 2;
  FleetConfig cfg;
  cfg.topology = Topology::rack_spine_wan(shape);
  cfg.seed = seed;
  cfg.horizon = SimTime::seconds(30);

  TenantSpec analytics;
  analytics.name = "analytics";
  analytics.weight = 2.0;
  analytics.policy = TenantPolicy::dynamic();
  analytics.arrival_per_s = 1.0;
  analytics.mean_flow_bytes = 16ull << 20;
  analytics.class_mix = {1.0, 0.0, 0.0};  // HIGH
  cfg.tenants.push_back(analytics);

  TenantSpec archive;
  archive.name = "archive";
  archive.weight = 1.0;
  archive.policy = TenantPolicy::fixed(0);
  archive.arrival_per_s = 0.5;
  archive.mean_flow_bytes = 8ull << 20;
  archive.class_mix = {0.0, 0.0, 1.0};  // LOW
  cfg.tenants.push_back(archive);

  BgTrafficConfig bg;
  bg.arrival_per_s = 0.5;
  bg.mean_holding_s = 10.0;
  bg.initial_flows = 2;
  bg.max_flows = 6;
  cfg.tenants.push_back(background_tenant(bg));
  return cfg;
}

TEST(Fleet, ReplayIsByteIdentical) {
  const FleetMetrics a = FleetEngine(small_fleet(7)).run();
  const FleetMetrics b = FleetEngine(small_fleet(7)).run();
  const std::string ja = a.to_json();
  EXPECT_EQ(ja, b.to_json());
  EXPECT_GT(a.flows_completed, 0u);
  EXPECT_FALSE(ja.empty());
}

TEST(Fleet, DifferentSeedsDiverge) {
  const FleetMetrics a = FleetEngine(small_fleet(7)).run();
  const FleetMetrics c = FleetEngine(small_fleet(8)).run();
  EXPECT_NE(a.to_json(), c.to_json());
}

TEST(Fleet, AllAdmittedFlowsCompleteWithinDrain) {
  const FleetMetrics m = FleetEngine(small_fleet(21)).run();
  std::uint64_t admitted = 0;
  for (const auto& tm : m.tenants) {
    admitted += tm.admitted;
    EXPECT_EQ(tm.spawned, tm.admitted + tm.rejected) << tm.name;
  }
  EXPECT_EQ(m.flows_completed, admitted);
  EXPECT_GT(m.epochs, 0u);
  EXPECT_GT(m.sim_completed_s, 0.0);
}

TEST(Fleet, CompressionShrinksWireBytesForCompressibleTenant) {
  const FleetMetrics m = FleetEngine(small_fleet(5)).run();
  const TenantMetrics& analytics = m.tenants[0];  // HIGH corpus, adaptive
  const TenantMetrics& archive = m.tenants[1];    // LOW corpus, level 0
  ASSERT_GT(analytics.raw_bytes, 0.0);
  ASSERT_GT(archive.raw_bytes, 0.0);
  // Level 0 moves every raw byte (plus frame headers) onto the wire.
  EXPECT_GT(archive.wire_bytes, archive.raw_bytes * 0.99);
  // The archive tenant never leaves level 0.
  EXPECT_NEAR(archive.raw_bytes_per_level[0], archive.raw_bytes, 1e-6);
}

TEST(Fleet, HigherWeightTenantFinishesFaster) {
  // Two identical tenants, same flows and sizes, sharing one fluctuating
  // link; only the kPerTenant weight differs. The heavier tenant's median
  // completion must beat the lighter one's.
  FleetConfig cfg;
  cfg.topology = Topology::single(profile(VirtTech::kKvmPara));
  cfg.seed = 13;
  cfg.horizon = SimTime::seconds(10);

  for (const double w : {3.0, 1.0}) {
    TenantSpec t;
    t.name = w > 1.0 ? "heavy" : "light";
    t.weight = w;
    t.share = ShareMode::kPerTenant;
    t.policy = TenantPolicy::fixed(0);
    t.arrival_per_s = 0.0;
    t.initial_flows = 4;
    t.mean_flow_bytes = 64ull << 20;
    t.min_flow_bytes = 64ull << 20;  // fixed-size flows
    t.class_mix = {0.0, 0.0, 1.0};
    cfg.tenants.push_back(t);
  }
  const FleetMetrics m = FleetEngine(cfg).run();
  ASSERT_EQ(m.tenants[0].completed, 4u);
  ASSERT_EQ(m.tenants[1].completed, 4u);
  EXPECT_LT(m.tenants[0].completion_s.quantile(0.5),
            m.tenants[1].completion_s.quantile(0.5));
}

TEST(Fleet, AdmissionControlRejectsBeyondQueueBound) {
  FleetConfig cfg;
  cfg.topology = Topology::single(profile(VirtTech::kKvmPara));
  cfg.seed = 29;
  cfg.horizon = SimTime::seconds(20);

  TenantSpec t;
  t.name = "bursty";
  t.policy = TenantPolicy::fixed(0);
  t.arrival_per_s = 10.0;
  t.flow_limit = 50;
  t.max_in_flight = 2;
  t.max_queue = 4;
  t.mean_flow_bytes = 32ull << 20;
  t.class_mix = {0.0, 0.0, 1.0};
  cfg.tenants.push_back(t);

  const FleetMetrics m = FleetEngine(cfg).run();
  const TenantMetrics& tm = m.tenants[0];
  EXPECT_EQ(tm.spawned, 50u);
  EXPECT_GT(tm.rejected, 0u);
  EXPECT_EQ(tm.admitted + tm.rejected, tm.spawned);
  EXPECT_EQ(tm.completed, tm.admitted);
}

TEST(Fleet, FlowLimitCountsInitialFlows) {
  // initial_flows already reach flow_limit, so the arrival process must
  // not spawn another flow.
  FleetConfig cfg;
  cfg.topology = Topology::single(profile(VirtTech::kKvmPara));
  cfg.horizon = SimTime::seconds(2);

  TenantSpec t;
  t.policy = TenantPolicy::fixed(0);
  t.initial_flows = 3;
  t.flow_limit = 3;
  t.arrival_per_s = 100.0;
  cfg.tenants.push_back(t);

  const FleetMetrics m = FleetEngine(cfg).run();
  EXPECT_EQ(m.tenants[0].spawned, 3u);
}

TEST(Fleet, HardStopEndsRunWithFlowsInFlight) {
  // One flow far too large to finish: the run ends at horizon *
  // drain_factor, and the epoch that starts exactly at the stop still
  // runs.
  FleetConfig cfg;
  cfg.topology = Topology::single(profile(VirtTech::kKvmPara));
  cfg.horizon = SimTime::seconds(1);
  cfg.drain_factor = 1.0;

  TenantSpec t;
  t.policy = TenantPolicy::fixed(0);
  t.arrival_per_s = 0.0;
  t.initial_flows = 1;
  t.mean_flow_bytes = 1ull << 40;
  t.min_flow_bytes = 1ull << 40;
  cfg.tenants.push_back(t);

  const FleetMetrics m = FleetEngine(cfg).run();
  EXPECT_EQ(m.epochs, 21u);  // epochs at 0, 50, ..., 1000 ms
  EXPECT_EQ(m.tenants[0].admitted, 1u);
  EXPECT_EQ(m.flows_completed, 0u);
}

// Two 2 GiB adaptive flows on the single-link topology whose tenant asks
// for a `num_levels` ladder; the model has CodecModel::kNumLevels rungs.
FleetConfig ladder_fleet(int num_levels, std::array<double, 3> class_mix) {
  FleetConfig cfg;
  cfg.topology = Topology::single(profile(VirtTech::kKvmPara));
  cfg.seed = 3;
  cfg.horizon = SimTime::seconds(10);
  cfg.codec_speed_factor = 100.0;  // compression is cheap: probe upward

  TenantSpec t;
  t.policy = TenantPolicy::dynamic();
  t.policy.adaptive.num_levels = num_levels;
  t.arrival_per_s = 0.0;
  t.initial_flows = 2;
  t.mean_flow_bytes = 2ull << 30;
  t.min_flow_bytes = 2ull << 30;
  t.class_mix = class_mix;
  cfg.tenants.push_back(t);
  return cfg;
}

double per_level_sum(const TenantMetrics& tm) {
  double sum = 0.0;
  for (const double b : tm.raw_bytes_per_level) sum += b;
  return sum;
}

TEST(Fleet, EmptyAdaptiveLadderStaysAtLevelZero) {
  // num_levels = 0 clamps to a one-rung ladder; unclamped, the first
  // window close probed to level -2.
  const FleetMetrics m = FleetEngine(ladder_fleet(0, {1.0, 0.0, 0.0})).run();
  const TenantMetrics& tm = m.tenants[0];
  EXPECT_EQ(m.flows_completed, 2u);
  EXPECT_NEAR(tm.raw_bytes, 2.0 * static_cast<double>(2ull << 30), 1.0);
  EXPECT_EQ(per_level_sum(tm), tm.raw_bytes);  // all of it at level 0
}

TEST(Fleet, AdaptiveLadderLongerThanModelIsClamped) {
  // num_levels = 5 (the extended registry ladder) clamps to the model's
  // four rungs; unclamped, the controller probed to level 4 and wrote
  // past raw_bytes_per_level.
  const std::array<double, 3> moderate = {0.0, 1.0, 0.0};
  const std::array<double, 3> low = {0.0, 0.0, 1.0};
  for (const auto& mix : {moderate, low}) {
    const FleetMetrics m = FleetEngine(ladder_fleet(5, mix)).run();
    const TenantMetrics& tm = m.tenants[0];
    EXPECT_EQ(m.flows_completed, 2u);
    EXPECT_NEAR(per_level_sum(tm), tm.raw_bytes, 1e-9 * tm.raw_bytes);
    EXPECT_GT(tm.raw_bytes_per_level[CodecModel::kNumLevels - 1], 0.0);
  }
}

TEST(Fleet, BackgroundTenantIsJustAnotherTenant) {
  const FleetMetrics m = FleetEngine(small_fleet(31)).run();
  const TenantMetrics& bg = m.tenants[2];
  EXPECT_EQ(bg.name, "background");
  EXPECT_GT(bg.completed, 0u);
  // Dwell flows move no application payload and report no completions
  // into the transfer-latency sample.
  EXPECT_EQ(bg.completion_s.count(), 0u);
  EXPECT_EQ(bg.raw_bytes, 0.0);
}

// ---------------------------------------------------------------------------
// Golden digests. These values were produced by the pre-incremental
// engine (full per-epoch MaxMinAllocator rebuild, serial drain, no
// cached kernels). The optimized engine must reproduce them bit for bit
// — do NOT update the constants to make a failure pass; a mismatch
// means the optimizations changed simulation results.
// ---------------------------------------------------------------------------

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ULL;
  }
  return h;
}

// A medium config exercising kPerTenant reweight churn, admission-queue
// pressure and rejections — every incremental code path at once.
FleetConfig medium_fleet(std::uint64_t seed) {
  FleetConfig cfg;
  cfg.topology = Topology::rack_spine_wan(Topology::FleetShape{});
  cfg.seed = seed;
  cfg.horizon = SimTime::seconds(60);
  for (int i = 0; i < 3; ++i) {
    TenantSpec t;
    t.name = "t" + std::to_string(i);
    t.weight = 1.0 + i;
    t.policy = i == 0 ? TenantPolicy::dynamic() : TenantPolicy::fixed(i);
    t.arrival_per_s = 8.0;
    t.max_in_flight = 40;
    t.max_queue = 200;
    t.mean_flow_bytes = 8ull << 20;
    t.class_mix = {0.3, 0.4, 0.3};
    cfg.tenants.push_back(t);
  }
  BgTrafficConfig bg;
  bg.arrival_per_s = 2.0;
  bg.mean_holding_s = 10.0;
  bg.initial_flows = 8;
  bg.max_flows = 64;
  cfg.tenants.push_back(background_tenant(bg));
  return cfg;
}

TEST(FleetGolden, PreOptimizationDigestsReproduce) {
  EXPECT_EQ(fnv1a(FleetEngine(small_fleet(7)).run().to_json()),
            0x8e9e071c25cd0493ULL);
  EXPECT_EQ(fnv1a(FleetEngine(small_fleet(21)).run().to_json()),
            0xb88751d8cf3c405cULL);
  EXPECT_EQ(fnv1a(FleetEngine(medium_fleet(5)).run().to_json()),
            0xa641e245520e92fbULL);
}

}  // namespace
}  // namespace strato::vsim
