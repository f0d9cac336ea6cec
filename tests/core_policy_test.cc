// The decision window (window_step) and the policy layer (static +
// adaptive).
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "core/controller.h"
#include "core/policy.h"

namespace strato::core {
namespace {

using common::SimTime;

// window_step over an interval t = `t_s` seconds and the default config.
std::optional<Decision> step(ControllerState& st, DecisionWindow& w,
                             double t_s, double bytes, double now_s) {
  return window_step(AdaptiveConfig{}, SimTime::seconds(t_s), st, w, bytes,
                     SimTime::seconds(now_s));
}

TEST(WindowStep, FirstCallOpensWindow) {
  ControllerState st;
  DecisionWindow w;
  EXPECT_FALSE(step(st, w, 2, 1000, 100).has_value());
  EXPECT_TRUE(w.open);
  EXPECT_EQ(w.start, SimTime::seconds(100));
  EXPECT_EQ(w.bytes, 1000.0);
  EXPECT_EQ(st.c, 0);  // the controller has not stepped
}

TEST(WindowStep, ClosesWindowAfterT) {
  ControllerState st;
  DecisionWindow w;
  EXPECT_FALSE(step(st, w, 2, 1000, 0).has_value());
  EXPECT_FALSE(step(st, w, 2, 1000, 1).has_value());
  EXPECT_FALSE(step(st, w, 2, 0, 1.5).has_value());
  const auto dec = step(st, w, 2, 0, 2);
  ASSERT_TRUE(dec.has_value());
  EXPECT_NEAR(dec->cdr, 1000.0, 1e-9);  // 2000 bytes over 2 s
  EXPECT_EQ(dec->level, st.ccl);
}

TEST(WindowStep, UsesActualElapsedTime) {
  // A late close divides by the true elapsed span, not the nominal t.
  ControllerState st;
  DecisionWindow w;
  EXPECT_FALSE(step(st, w, 2, 4000, 0).has_value());
  const auto dec = step(st, w, 2, 0, 4);
  ASSERT_TRUE(dec.has_value());
  EXPECT_NEAR(dec->cdr, 1000.0, 1e-9);
}

TEST(WindowStep, WindowsAreConsecutive) {
  // The first window starts at the first call; each close reopens the
  // window at the closing time with no bytes carried over.
  ControllerState st;
  DecisionWindow w;
  EXPECT_FALSE(step(st, w, 1, 100, 0.5).has_value());
  EXPECT_FALSE(step(st, w, 1, 0, 1).has_value());  // only 0.5 s in
  ASSERT_TRUE(step(st, w, 1, 0, 1.5).has_value());
  EXPECT_EQ(w.start, SimTime::seconds(1.5));
  EXPECT_EQ(w.bytes, 0.0);
  EXPECT_FALSE(step(st, w, 1, 500, 2.0).has_value());
  const auto dec = step(st, w, 1, 0, 2.5);
  ASSERT_TRUE(dec.has_value());
  EXPECT_NEAR(dec->cdr, 500.0, 1e-9);  // only the second window's bytes
}

TEST(WindowStep, PreOpenedWindowCountsFromItsStart) {
  // The fleet opens a flow's window at admission; the first close spans
  // from there, not from the first bytes.
  ControllerState st;
  DecisionWindow w{SimTime::seconds(1), 0.0, true};
  EXPECT_FALSE(step(st, w, 2, 3000, 2).has_value());
  const auto dec = step(st, w, 2, 3000, 3);
  ASSERT_TRUE(dec.has_value());
  EXPECT_NEAR(dec->cdr, 3000.0, 1e-9);  // 6000 bytes over 2 s
}

TEST(StaticPolicy, FixedLevelAndName) {
  StaticPolicy p(2, "MEDIUM");
  EXPECT_EQ(p.level(), 2);
  EXPECT_EQ(p.name(), "MEDIUM");
  p.on_block(1000, SimTime::seconds(1));
  EXPECT_EQ(p.level(), 2);
}

TEST(AdaptivePolicy, StartsAtLevelZero) {
  AdaptivePolicy p(AdaptiveConfig{}, SimTime::seconds(2));
  EXPECT_EQ(p.level(), 0);
  EXPECT_EQ(p.name(), "DYNAMIC");
}

TEST(AdaptivePolicy, DecidesOncePerWindow) {
  AdaptivePolicy p(AdaptiveConfig{}, SimTime::seconds(2));
  int decisions = 0;
  p.set_trace([&](SimTime, double, const Decision&) { ++decisions; });
  // Feed 10 s of steady data in 0.1 s blocks.
  for (int i = 0; i <= 100; ++i) {
    p.on_block(100000, SimTime::seconds(0.1 * i));
  }
  EXPECT_EQ(decisions, 5);  // one per 2-second window
}

TEST(AdaptivePolicy, TraceSeesApplicationRate) {
  AdaptivePolicy p(AdaptiveConfig{}, SimTime::seconds(1));
  double seen_rate = -1;
  p.set_trace([&](SimTime, double cdr, const Decision&) { seen_rate = cdr; });
  p.on_block(500000, SimTime::seconds(0));
  p.on_block(500000, SimTime::seconds(1));  // closes window: 1 MB / 1 s
  EXPECT_NEAR(seen_rate, 1e6, 1e-3);
}

TEST(AdaptivePolicy, ProbesFromLevelZeroOnStableRate) {
  AdaptivePolicy p(AdaptiveConfig{}, SimTime::seconds(1));
  for (int i = 0; i <= 40; ++i) {
    p.on_block(100000, SimTime::seconds(0.25 * i));
  }
  // With a perfectly stable rate the controller keeps probing; the level
  // must have moved off 0 at some point (and stays within the ladder).
  EXPECT_GE(p.level(), 0);
  EXPECT_LT(p.level(), 4);
  EXPECT_EQ(p.level(), p.state().ccl);
}

TEST(AdaptivePolicy, ClampsLadderToControllerState) {
  // num_levels outside [1, kMaxControllerLevels] is clamped: 0 becomes a
  // one-rung ladder, 40 the largest ladder ControllerState can hold.
  for (const int n : {0, 40}) {
    AdaptiveConfig cfg;
    cfg.num_levels = n;
    const int rungs = n < 1 ? 1 : kMaxControllerLevels;
    AdaptivePolicy p(cfg, SimTime::seconds(1));
    int top = 0;
    // A stable rate probes upward every window, across the whole ladder.
    for (int i = 0; i <= 400; ++i) {
      p.on_block(100000, SimTime::seconds(0.25 * i));
      ASSERT_GE(p.level(), 0) << "num_levels " << n;
      ASSERT_LT(p.level(), rungs) << "num_levels " << n;
      top = std::max(top, p.level());
    }
    EXPECT_EQ(top, rungs - 1) << "num_levels " << n;
  }
}

TEST(AdaptivePolicy, LevelRespondsToRateCollapse) {
  // Simulate: level 0 gives 100 MB/s; any compression level collapses the
  // app rate. The policy must spend most of its time at level 0.
  AdaptiveConfig cfg;
  cfg.alpha = 0.2;
  AdaptivePolicy p(cfg, SimTime::seconds(1));
  double t = 0;
  int at_zero = 0, windows = 0;
  for (int w = 0; w < 100; ++w) {
    const double rate = p.level() == 0 ? 100e6 : 20e6;
    // 10 blocks per window of `rate` bytes/s.
    for (int b = 0; b < 10; ++b) {
      p.on_block(static_cast<std::size_t>(rate / 10), SimTime::seconds(t));
      t += 0.1;
    }
    ++windows;
    if (p.level() == 0) ++at_zero;
  }
  EXPECT_GT(at_zero, windows / 2);
}

}  // namespace
}  // namespace strato::core
