// Statistics utilities: streaming moments, quantiles, boxplot stats,
// histograms.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "common/stats.h"

namespace strato::common {
namespace {

TEST(RunningStats, BasicMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, EmptyAndSingle) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
  s.add(3.5);
  EXPECT_EQ(s.mean(), 3.5);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.min(), 3.5);
  EXPECT_EQ(s.max(), 3.5);
}

TEST(RunningStats, AgreesWithSample) {
  Xoshiro256 rng(11);
  RunningStats rs;
  Sample sm;
  for (int i = 0; i < 5000; ++i) {
    const double x = rng.gaussian(10.0, 3.0);
    rs.add(x);
    sm.add(x);
  }
  EXPECT_NEAR(rs.mean(), sm.mean(), 1e-9);
  EXPECT_NEAR(rs.stddev(), sm.stddev(), 1e-9);
  EXPECT_DOUBLE_EQ(rs.min(), sm.min());
  EXPECT_DOUBLE_EQ(rs.max(), sm.max());
}

TEST(Sample, Quantiles) {
  Sample s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 100.0);
  EXPECT_NEAR(s.quantile(0.5), 50.5, 1e-9);
  EXPECT_NEAR(s.quantile(0.25), 25.75, 1e-9);
  // Quantiles are monotone in q.
  double prev = -1e18;
  for (double q = 0.0; q <= 1.0; q += 0.01) {
    const double v = s.quantile(q);
    EXPECT_GE(v, prev);
    prev = v;
  }
}

TEST(Sample, QuantileEdgeCases) {
  Sample s;
  EXPECT_EQ(s.quantile(0.5), 0.0);  // empty
  s.add(7.0);
  EXPECT_EQ(s.quantile(0.0), 7.0);
  EXPECT_EQ(s.quantile(1.0), 7.0);
  EXPECT_EQ(s.quantile(0.3), 7.0);
}

TEST(Sample, FiveNumberAndOutliers) {
  Sample s;
  for (int i = 0; i < 100; ++i) s.add(50.0 + (i % 10));
  s.add(1000.0);  // far outlier
  const FiveNumber f = s.five_number();
  EXPECT_EQ(f.min, 50.0);
  EXPECT_EQ(f.max, 1000.0);
  EXPECT_GE(f.q3, f.q1);
  EXPECT_GE(f.median, f.q1);
  EXPECT_LE(f.median, f.q3);
  EXPECT_GE(f.outliers, 1u);
}

TEST(Sample, LazySortSurvivesInterleavedAdds) {
  Sample s;
  s.add(3);
  s.add(1);
  EXPECT_EQ(s.min(), 1.0);
  s.add(0.5);  // add after a sorted query
  EXPECT_EQ(s.min(), 0.5);
  EXPECT_EQ(s.max(), 3.0);
}

TEST(Histogram, BucketsAndClamping) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);   // bucket 0
  h.add(9.99);  // bucket 9
  h.add(-5.0);  // clamps to 0
  h.add(50.0);  // clamps to 9
  EXPECT_EQ(h.bucket(0), 2u);
  EXPECT_EQ(h.bucket(9), 2u);
  EXPECT_EQ(h.total(), 4u);
}

TEST(Histogram, DegenerateConstruction) {
  Histogram h(0.0, 0.0, 0);  // coerced to one bucket
  h.add(123.0);
  EXPECT_EQ(h.bucket_count(), 1u);
  EXPECT_EQ(h.total(), 1u);
}

// --- fleet-cardinality coverage -------------------------------------------
// The fleet engine asks for tail quantiles (p999) over >= 100k completion
// times and folds per-tenant histograms into an all-tenant aggregate;
// these paths must be exact at that scale.

TEST(Sample, TailQuantilesAtFleetCardinality) {
  // 0, 1, ..., 199999 — every quantile is known in closed form.
  Sample s;
  const int n = 200000;
  s.reserve(n);
  for (int i = 0; i < n; ++i) s.add(i);
  EXPECT_NEAR(s.quantile(0.5), (n - 1) * 0.5, 1e-6);
  EXPECT_NEAR(s.quantile(0.99), (n - 1) * 0.99, 1e-6);
  EXPECT_NEAR(s.quantile(0.999), (n - 1) * 0.999, 1e-6);
  EXPECT_NEAR(s.quantile(0.9999), (n - 1) * 0.9999, 1e-6);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), n - 1);
  // p999 must sit strictly between p99 and max — a clamped or truncated
  // index computation collapses them.
  EXPECT_GT(s.quantile(0.999), s.quantile(0.99));
  EXPECT_LT(s.quantile(0.999), s.max());
}

TEST(Sample, P999SeparatesAHeavyTail) {
  // 100k fast completions plus 200 stragglers: p99 stays in the bulk,
  // p999 lands in the tail.
  Sample s;
  for (int i = 0; i < 100000; ++i) s.add(10.0 + (i % 100) * 0.01);
  for (int i = 0; i < 200; ++i) s.add(500.0 + i);
  EXPECT_LT(s.quantile(0.99), 12.0);
  EXPECT_GT(s.quantile(0.999), 100.0);
}

TEST(Sample, MergeMatchesPooledObservations) {
  Xoshiro256 rng(7);
  Sample a, b, pooled;
  for (int i = 0; i < 5000; ++i) {
    const double x = rng.gaussian(100.0, 25.0);
    (i % 3 == 0 ? a : b).add(x);
    pooled.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), pooled.count());
  for (double q : {0.0, 0.25, 0.5, 0.99, 0.999, 1.0}) {
    EXPECT_DOUBLE_EQ(a.quantile(q), pooled.quantile(q)) << q;
  }
}

TEST(Sample, MergeEdgeCases) {
  Sample empty, one;
  one.add(42.0);
  Sample target;
  target.merge(empty);  // no-op
  EXPECT_TRUE(target.empty());
  EXPECT_EQ(target.quantile(0.999), 0.0);
  target.merge(one);  // single observation: every quantile is it
  EXPECT_EQ(target.count(), 1u);
  EXPECT_DOUBLE_EQ(target.quantile(0.5), 42.0);
  EXPECT_DOUBLE_EQ(target.quantile(0.999), 42.0);
  target.merge(empty);
  EXPECT_EQ(target.count(), 1u);
}

TEST(Histogram, MergePerTenantIntoAggregate) {
  Histogram web(0.0, 1000.0, 50), batch(0.0, 1000.0, 50);
  Histogram pooled(0.0, 1000.0, 50);
  Xoshiro256 rng(13);
  for (int i = 0; i < 100000; ++i) {
    const double x = rng.uniform(0.0, 1200.0);  // exercises clamping too
    (i % 2 == 0 ? web : batch).add(x);
    pooled.add(x);
  }
  ASSERT_TRUE(web.merge(batch));
  EXPECT_EQ(web.total(), pooled.total());
  for (std::size_t i = 0; i < pooled.bucket_count(); ++i) {
    EXPECT_EQ(web.bucket(i), pooled.bucket(i)) << i;
  }
}

TEST(Histogram, MergeRejectsLayoutMismatch) {
  Histogram a(0.0, 10.0, 10);
  Histogram wrong_range(0.0, 20.0, 10);
  Histogram wrong_buckets(0.0, 10.0, 5);
  a.add(1.0);
  EXPECT_FALSE(a.merge(wrong_range));
  EXPECT_FALSE(a.merge(wrong_buckets));
  EXPECT_EQ(a.total(), 1u);  // untouched on rejection
}

TEST(Histogram, MergeEmptyAndSelfLayout) {
  Histogram a(0.0, 10.0, 10), empty(0.0, 10.0, 10);
  a.add(5.0);
  ASSERT_TRUE(a.merge(empty));
  EXPECT_EQ(a.total(), 1u);
  ASSERT_TRUE(empty.merge(a));
  EXPECT_EQ(empty.total(), 1u);
  EXPECT_EQ(empty.bucket(5), 1u);
}

TEST(Rng, GaussianMoments) {
  Xoshiro256 rng(99);
  RunningStats s;
  for (int i = 0; i < 200000; ++i) s.add(rng.gaussian(5.0, 2.0));
  EXPECT_NEAR(s.mean(), 5.0, 0.05);
  EXPECT_NEAR(s.stddev(), 2.0, 0.05);
}

}  // namespace
}  // namespace strato::common
