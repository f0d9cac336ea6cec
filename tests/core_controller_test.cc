// Algorithm 1 unit tests: every branch of the paper's pseudo code plus
// the boundary/clamping policy and the backoff dynamics, stepped through
// controller_step over a plain ControllerState.
#include <gtest/gtest.h>

#include "core/controller.h"

namespace strato::core {
namespace {

AdaptiveConfig cfg4(double alpha = 0.2) {
  AdaptiveConfig c;
  c.num_levels = 4;
  c.alpha = alpha;
  return c;
}

TEST(Controller, InitialState) {
  const ControllerState st;
  EXPECT_EQ(st.ccl, 0);
  EXPECT_TRUE(st.inc);
  EXPECT_EQ(st.c, 0);
  for (int l = 0; l < kMaxControllerLevels; ++l) EXPECT_EQ(st.bck[l], 0);
}

TEST(Controller, FirstCallProbesUpward) {
  // First call: pdr := cdr, so d = 0 -> "no change" branch; with bck[0]=0
  // the backoff is over immediately (c=1 >= 2^0) and the algorithm
  // optimistically probes the next level (inc starts TRUE).
  ControllerState st;
  const Decision dec = controller_step(cfg4(), st, 100.0);
  EXPECT_EQ(dec.level, 1);
  EXPECT_TRUE(dec.probed);
  EXPECT_FALSE(dec.reverted);
  EXPECT_EQ(dec.cdr, 100.0);
  EXPECT_TRUE(st.inc);
}

TEST(Controller, ImprovementRewardsLevelWithBackoff) {
  ControllerState st;
  controller_step(cfg4(), st, 100.0);                     // probe 0 -> 1
  const auto dec = controller_step(cfg4(), st, 200.0);    // rate doubled
  EXPECT_EQ(dec.level, 1);  // stay
  EXPECT_FALSE(dec.probed);
  EXPECT_EQ(st.bck[1], 1);  // bck[1]++
}

TEST(Controller, DegradationRevertsImmediately) {
  ControllerState st;
  controller_step(cfg4(), st, 100.0);                  // 0 -> 1 (inc=true)
  const auto dec = controller_step(cfg4(), st, 50.0);  // worse at level 1
  EXPECT_EQ(dec.level, 0);  // revert
  EXPECT_TRUE(dec.reverted);
  EXPECT_EQ(st.bck[1], 0);  // reset for the degraded level
  EXPECT_FALSE(st.inc);
}

TEST(Controller, DeadBandAbsorbsFluctuations) {
  // alpha = 0.2: changes within +-20 % of pdr are "no change".
  ControllerState st;
  controller_step(cfg4(0.2), st, 100.0);  // probe to 1, pdr=100
  // +15 % -> no-change branch; c=1 >= 2^bck[1]=1 -> probes again
  controller_step(cfg4(0.2), st, 115.0);
  EXPECT_EQ(st.ccl, 2);
  // Just outside the band counts as improvement.
  ControllerState st2;
  controller_step(cfg4(0.2), st2, 100.0);
  const auto dec = controller_step(cfg4(0.2), st2, 121.0);  // +21 % > alpha
  EXPECT_EQ(dec.level, 1);  // improvement -> stay
  EXPECT_EQ(st2.bck[1], 1);
}

TEST(Controller, BackoffDelaysProbesExponentially) {
  // Build bck[1] = 2 via two improvements, then count the stable windows
  // until the next probe: needs c >= 2^2 = 4 calls.
  ControllerState st;
  controller_step(cfg4(), st, 100.0);  // -> level 1
  controller_step(cfg4(), st, 200.0);  // improvement, bck[1]=1, c=0
  controller_step(cfg4(), st, 400.0);  // improvement, bck[1]=2, c=0
  int stable_windows = 0;
  for (;;) {
    const auto dec = controller_step(cfg4(), st, 400.0);  // stable rate
    ++stable_windows;
    if (dec.probed) break;
    ASSERT_LT(stable_windows, 100);
  }
  EXPECT_EQ(stable_windows, 4);  // 2^bck[1]
}

TEST(Controller, ProbeDirectionFollowsInc) {
  ControllerState st;
  controller_step(cfg4(), st, 100.0);  // 0 -> 1, inc=true
  controller_step(cfg4(), st, 100.0);  // stable, probe up: 1 -> 2
  EXPECT_EQ(st.ccl, 2);
  controller_step(cfg4(), st, 40.0);  // degradation -> 1, inc=false
  EXPECT_EQ(st.ccl, 1);
  controller_step(cfg4(), st, 40.0);  // stable (pdr=40), probe DOWN -> 0
  EXPECT_EQ(st.ccl, 0);
}

TEST(Controller, BoundaryFlipAtBottom) {
  ControllerState st;
  controller_step(cfg4(), st, 100.0);  // -> 1
  controller_step(cfg4(), st, 50.0);   // degrade -> 0, inc=false
  // Stable at level 0: probe would go to -1; the controller flips to +1.
  const auto dec = controller_step(cfg4(), st, 50.0);
  EXPECT_EQ(dec.level, 1);
  EXPECT_TRUE(st.inc);
}

TEST(Controller, BoundaryFlipAtTop) {
  ControllerState st;
  // Walk to the top with steadily "stable" rates (each probe keeps
  // rate within the dead band, so probing continues upward).
  controller_step(cfg4(), st, 100.0);
  controller_step(cfg4(), st, 100.0);
  controller_step(cfg4(), st, 100.0);
  EXPECT_EQ(st.ccl, 3);
  // Probe up from the top -> flip down.
  const auto dec = controller_step(cfg4(), st, 100.0);
  EXPECT_EQ(dec.level, 2);
  EXPECT_FALSE(st.inc);
}

TEST(Controller, RevertDirectionAtLevelZero) {
  // A degradation at level 0 with inc=false reverts "back up" to level 1
  // (the revert undoes the last change, which was a decrease).
  ControllerState st;
  const auto d1 = controller_step(cfg4(), st, 100.0);  // -> 1
  EXPECT_EQ(d1.level, 1);
  controller_step(cfg4(), st, 30.0);  // degrade -> 0, inc=false
  ASSERT_EQ(st.ccl, 0);
  // Improvement then degradation at level 0: revert direction is +1
  // (inc=false), which is a valid level.
  controller_step(cfg4(), st, 100.0);  // improvement at 0 (bck[0]++)
  const auto d2 = controller_step(cfg4(), st, 10.0);  // degradation at 0
  EXPECT_EQ(d2.level, 1);  // revert flips to the other side
}

TEST(Controller, BackoffDisabledProbesEveryStableWindow) {
  AdaptiveConfig cfg = cfg4();
  cfg.backoff_enabled = false;
  ControllerState st;
  controller_step(cfg, st, 100.0);  // -> 1
  controller_step(cfg, st, 200.0);  // improvement: no backoff recorded
  EXPECT_EQ(st.bck[1], 0);
  const auto dec = controller_step(cfg, st, 200.0);  // stable -> probes
  EXPECT_TRUE(dec.probed);
}

TEST(Controller, SingleLevelLadderNeverMoves) {
  AdaptiveConfig cfg;
  cfg.num_levels = 1;
  ControllerState st;
  for (double r : {100.0, 200.0, 50.0, 50.0, 500.0}) {
    EXPECT_EQ(controller_step(cfg, st, r).level, 0);
  }
}

TEST(Controller, ZeroRateWindowsAreHandled) {
  ControllerState st;
  EXPECT_NO_THROW(controller_step(cfg4(), st, 0.0));
  EXPECT_NO_THROW(controller_step(cfg4(), st, 0.0));
  // Recovery = improvement.
  EXPECT_NO_THROW(controller_step(cfg4(), st, 100.0));
  EXPECT_GE(st.ccl, 0);
  EXPECT_LT(st.ccl, 4);
}

TEST(Controller, LevelAlwaysInRangeUnderRandomRates) {
  // Property: for any rate sequence the returned level is a valid rung.
  ControllerState st;
  std::uint64_t state = 88172645463325252ULL;
  for (int i = 0; i < 20000; ++i) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    const double rate = static_cast<double>(state % 1000000);
    const auto dec = controller_step(cfg4(), st, rate);
    ASSERT_GE(dec.level, 0);
    ASSERT_LT(dec.level, 4);
    ASSERT_EQ(dec.level, st.ccl);
  }
}

TEST(Controller, BackoffExponentIsCapped) {
  ControllerState st;
  controller_step(cfg4(), st, 100.0);  // -> 1
  double rate = 100.0;
  for (int i = 0; i < 50; ++i) {
    rate *= 1.5;  // perpetual improvement
    controller_step(cfg4(), st, rate);
  }
  EXPECT_EQ(st.bck[1], kMaxBackoffExponent);
}

TEST(Controller, WindowCounterResetsOnEveryBranchExit) {
  ControllerState st;
  controller_step(cfg4(), st, 100.0);  // probe resets c
  EXPECT_EQ(st.c, 0);
  controller_step(cfg4(), st, 300.0);  // improvement resets c
  EXPECT_EQ(st.c, 0);
  controller_step(cfg4(), st, 10.0);   // degradation resets c
  EXPECT_EQ(st.c, 0);
}

TEST(Controller, PaperTraceSettlesAndAlternatesProbes) {
  // Reproduce the Fig. 4 behaviour qualitatively with a synthetic rate
  // function: level 1 is optimal (rate 200), level 0 and 2 are worse
  // (100, 120), level 3 much worse. The controller must settle on 1 and
  // spend the vast majority of windows there.
  const auto rate_at = [](int level) {
    switch (level) {
      case 0: return 100.0;
      case 1: return 200.0;
      case 2: return 120.0;
      default: return 20.0;
    }
  };
  ControllerState st;
  int at_best = 0;
  int level = 0;
  for (int w = 0; w < 400; ++w) {
    level = controller_step(cfg4(), st, rate_at(level)).level;
    if (level == 1) ++at_best;
  }
  EXPECT_GT(at_best, 320);  // > 80 % of windows at the best level
  // Backoff for the settled level must have grown meaningfully.
  EXPECT_GE(st.bck[1], 3);
}

}  // namespace
}  // namespace strato::core
