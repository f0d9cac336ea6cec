// Metrics: /proc/stat parsing, interval diffs, time series.
#include <gtest/gtest.h>

#include <sstream>
#include <thread>
#include <vector>

#include "metrics/proc_stat.h"
#include "metrics/registry.h"
#include "metrics/timeseries.h"

namespace strato::metrics {
namespace {

constexpr const char* kSample =
    "cpu  1000 100 500 8000 50 20 30 300\n"
    "cpu0 1000 100 500 8000 50 20 30 300\n"
    "intr 12345\n";

TEST(ProcStat, ParsesAggregateLine) {
  const auto s = parse_proc_stat(kSample);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->user, 1000u);
  EXPECT_EQ(s->nice, 100u);
  EXPECT_EQ(s->system, 500u);
  EXPECT_EQ(s->idle, 8000u);
  EXPECT_EQ(s->iowait, 50u);
  EXPECT_EQ(s->irq, 20u);
  EXPECT_EQ(s->softirq, 30u);
  EXPECT_EQ(s->steal, 300u);
  EXPECT_EQ(s->total(), 10000u);
}

TEST(ProcStat, OldKernelShortLine) {
  const auto s = parse_proc_stat("cpu  10 0 5 100\n");
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->steal, 0u);
  EXPECT_EQ(s->total(), 115u);
}

TEST(ProcStat, MissingOrMalformed) {
  EXPECT_FALSE(parse_proc_stat("").has_value());
  EXPECT_FALSE(parse_proc_stat("intr 1 2 3\n").has_value());
  EXPECT_FALSE(parse_proc_stat("cpu  garbage\n").has_value());
  // "cpu0" must not match the aggregate parser.
  EXPECT_FALSE(parse_proc_stat("cpu0 1 2 3 4\n").has_value());
}

TEST(ProcStat, DiffYieldsFractions) {
  ProcStatSnapshot a, b;
  a.user = 100;
  a.idle = 900;
  b = a;
  b.user = 150;   // +50 user
  b.system = 25;  // +25 sys
  b.idle = 925;   // +25 idle
  const CpuBreakdown d = diff(a, b);
  EXPECT_NEAR(d.usr, 0.5, 1e-12);
  EXPECT_NEAR(d.sys, 0.25, 1e-12);
  EXPECT_NEAR(d.busy(), 0.75, 1e-12);
  EXPECT_NEAR(d.idle(), 0.25, 1e-12);
}

TEST(ProcStat, DiffHandlesNoElapsedOrBackwards) {
  ProcStatSnapshot a;
  a.user = 10;
  const auto zero = diff(a, a);
  EXPECT_EQ(zero.busy(), 0.0);
  ProcStatSnapshot earlier = a, later = a;
  earlier.user = 100;
  later.user = 50;  // counter went backwards (reboot)
  EXPECT_EQ(diff(earlier, later).busy(), 0.0);
}

TEST(ProcStat, LiveReadOnLinux) {
  // On the build machine /proc/stat exists; the parser must handle it.
  const auto live = read_proc_stat();
  ASSERT_TRUE(live.has_value());
  EXPECT_GT(live->total(), 0u);
}

TEST(CpuBreakdown, ArithmeticAndFormatting) {
  CpuBreakdown a{0.1, 0.2, 0.0, 0.05, 0.1};
  EXPECT_NEAR(a.busy(), 0.45, 1e-12);
  CpuBreakdown b = a * 2.0;
  EXPECT_NEAR(b.sys, 0.4, 1e-12);
  a += b;
  EXPECT_NEAR(a.usr, 0.3, 1e-12);
  const auto s = to_string(b);
  EXPECT_NE(s.find("sys=40.0%"), std::string::npos);
}

TEST(TimeSeries, StepwiseAt) {
  TimeSeries ts;
  using common::SimTime;
  ts.add(SimTime::seconds(1), 10.0);
  ts.add(SimTime::seconds(3), 30.0);
  EXPECT_EQ(ts.at(SimTime::seconds(0.5), -1.0), -1.0);  // before first
  EXPECT_EQ(ts.at(SimTime::seconds(1)), 10.0);
  EXPECT_EQ(ts.at(SimTime::seconds(2.9)), 10.0);
  EXPECT_EQ(ts.at(SimTime::seconds(3)), 30.0);
  EXPECT_EQ(ts.at(SimTime::seconds(100)), 30.0);
}

TEST(TimelineRecorder, SeriesManagementAndCsv) {
  TimelineRecorder rec;
  using common::SimTime;
  rec.record("a", SimTime::seconds(0), 1.0);
  rec.record("a", SimTime::seconds(2), 2.0);
  rec.record("b", SimTime::seconds(1), 5.0);
  EXPECT_TRUE(rec.has("a"));
  EXPECT_TRUE(rec.has("b"));
  EXPECT_FALSE(rec.has("c"));
  EXPECT_EQ(rec.series("a").size(), 2u);

  std::ostringstream os;
  rec.write_csv(os, SimTime::seconds(1));
  const std::string csv = os.str();
  EXPECT_NE(csv.find("time_s,a,b"), std::string::npos);
  EXPECT_NE(csv.find("\n0,1,0"), std::string::npos);   // b before first = 0
  EXPECT_NE(csv.find("\n1,1,5"), std::string::npos);
  EXPECT_NE(csv.find("\n2,2,5"), std::string::npos);
}

// ---------------------------------------------------------------------------
// MetricRegistry (metrics/registry.h)

TEST(MetricRegistry, CounterAndGaugeResolveToStableAddresses) {
  MetricRegistry reg;
  Counter& a = reg.counter("tx.wire_bytes");
  Gauge& g = reg.gauge("tx.queued_bytes");
  a.add();
  a.add(41);
  g.set(-7);
  // Re-resolving by name yields the same node (std::map: stable).
  EXPECT_EQ(&reg.counter("tx.wire_bytes"), &a);
  EXPECT_EQ(&reg.gauge("tx.queued_bytes"), &g);
  EXPECT_EQ(a.value(), 42u);
  EXPECT_EQ(g.value(), -7);
  g.add(3);
  EXPECT_EQ(g.value(), -4);
}

TEST(MetricRegistry, SnapshotIsNameSorted) {
  MetricRegistry reg;
  reg.counter("zeta").add(1);
  reg.gauge("alpha").set(2);
  reg.counter("mid").add(3);
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].name, "alpha");
  EXPECT_FALSE(snap[0].is_counter);
  EXPECT_EQ(snap[0].value, 2);
  EXPECT_EQ(snap[1].name, "mid");
  EXPECT_EQ(snap[2].name, "zeta");
}

TEST(MetricRegistry, JsonIsDeterministicAcrossInsertionOrder) {
  // Two registries fed the same values in different orders must render
  // byte-identical JSON — the property the bench gate relies on.
  MetricRegistry a;
  a.counter("rx.blocks").add(5);
  a.gauge("tx.queued_bytes").set(0);
  a.counter("tx.frames").add(5);
  MetricRegistry b;
  b.counter("tx.frames").add(5);
  b.counter("rx.blocks").add(2);
  b.gauge("tx.queued_bytes").set(0);
  b.counter("rx.blocks").add(3);
  EXPECT_EQ(a.to_json(), b.to_json());
  EXPECT_EQ(a.to_json(),
            "{\"rx.blocks\":5,\"tx.frames\":5,\"tx.queued_bytes\":0}");
}

TEST(MetricRegistry, ConcurrentAddsAreLossless) {
  MetricRegistry reg;
  Counter& c = reg.counter("hits");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) c.add();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
}

}  // namespace
}  // namespace strato::metrics
