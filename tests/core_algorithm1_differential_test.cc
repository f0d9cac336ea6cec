// Differential test of Algorithm 1.
//
// A second, deliberately naive transcription of the paper's pseudo code
// (plus the explicitly stated out-of-algorithm bookkeeping: pdr update,
// inc update, first-call pdr=cdr, and the repository's documented
// boundary clamping) is executed side by side with the production
// controller_step over long random rate traces. Any divergence in
// chosen levels or backoff state is a bug in one of the two.
//
// A naive transcription of the decision window (an integer byte counter
// closed once now - start >= t) feeds the same reference beside the two
// production hosts' window: AdaptivePolicy over jittered blocks, and
// window_step closed at fleet-style epoch ends.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "common/sim_time.h"
#include "core/controller.h"
#include "core/policy.h"

namespace strato::core {
namespace {

/// Literal transcription of the paper's Algorithm 1 + Table I state.
class ReferenceAlgorithm1 {
 public:
  explicit ReferenceAlgorithm1(int num_levels, double alpha)
      : n_(num_levels), alpha_(alpha), bck_(num_levels, 0) {}

  int step(double rate) {
    // Table I: "On the first call of the decision algorithm, pdr is set
    // to cdr."
    const double cdr = rate;
    if (first_) {
      pdr_ = cdr;
      first_ = false;
    }

    // --- Algorithm 1, lines 1-28 ---
    const double d = cdr - pdr_;                    // line 1
    c_ = c_ + 1;                                    // line 2
    int ncl = ccl_;                                 // line 3
    if (std::fabs(d) <= alpha_ * pdr_) {            // line 4
      if (c_ >= (1LL << bck_[ccl_])) {              // line 6
        if (inc_) {                                 // line 7
          ncl = ncl + 1;                            // line 8
        } else {
          ncl = ncl - 1;                            // line 10
        }
        // Boundary handling (documented in DESIGN.md: flip direction).
        if (n_ == 1) {
          ncl = 0;
        } else if (ncl < 0) {
          ncl = 1;
        } else if (ncl >= n_) {
          ncl = n_ - 2;
        }
        c_ = 0;                                     // line 12
      }
    } else if (d > 0) {                             // line 15
      bck_[ccl_] = std::min(bck_[ccl_] + 1, 30);    // line 16
      c_ = 0;                                       // line 17
    } else {                                        // line 19
      bck_[ccl_] = 0;                               // line 20
      if (inc_) {                                   // line 21
        ncl = ccl_ - 1;                             // line 22
      } else {
        ncl = ccl_ + 1;                             // line 24
      }
      if (ncl < 0) ncl = 0;                         // clamp (no flip)
      if (ncl >= n_) ncl = n_ - 1;
      c_ = 0;                                       // line 26
    }
    // "inc is usually updated outside of the displayed algorithm
    // depending on the input parameter ccl and the return value ncl."
    if (ncl > ccl_) inc_ = true;
    if (ncl < ccl_) inc_ = false;
    pdr_ = cdr;
    ccl_ = ncl;
    return ncl;
  }

  [[nodiscard]] int backoff(int level) const { return bck_[level]; }
  [[nodiscard]] bool inc() const { return inc_; }

 private:
  int n_;
  double alpha_;
  int ccl_ = 0;
  long long c_ = 0;
  bool inc_ = true;
  std::vector<int> bck_;
  double pdr_ = 0.0;
  bool first_ = true;
};

class Differential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Differential, ReferenceAndProductionAgreeOnRandomTraces) {
  common::Xoshiro256 rng(GetParam());
  const int levels = 2 + static_cast<int>(rng.below(5));
  const double alpha = rng.uniform(0.05, 0.4);

  AdaptiveConfig cfg;
  cfg.num_levels = levels;
  cfg.alpha = alpha;
  ControllerState production;
  ReferenceAlgorithm1 reference(levels, alpha);

  double rate = 1e6;
  for (int w = 0; w < 5000; ++w) {
    // Random walk with occasional regime jumps (level changes cause them
    // in reality).
    if (rng.below(20) == 0) {
      rate = rng.uniform(1e5, 1e8);
    } else {
      rate = std::max(1.0, rate * rng.uniform(0.75, 1.35));
    }
    const int want = reference.step(rate);
    const Decision got = controller_step(cfg, production, rate);
    ASSERT_EQ(got.level, want) << "window " << w;
    for (int l = 0; l < levels; ++l) {
      ASSERT_EQ(production.bck[l], reference.backoff(l))
          << "window " << w << " level " << l;
    }
    ASSERT_EQ(production.inc, reference.inc()) << "window " << w;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Differential,
                         ::testing::Range<std::uint64_t>(1, 21));

TEST(Differential, PaperWorkedExample) {
  // A hand-checkable trace: rates that make level 1 the clear optimum.
  // Annotated against the pseudo code.
  ReferenceAlgorithm1 ref(4, 0.2);
  AdaptiveConfig cfg;
  cfg.num_levels = 4;
  cfg.alpha = 0.2;
  ControllerState prod;
  const double trace[] = {100, 250, 120, 250, 250, 250, 250, 250,
                          250, 250, 250, 250, 250, 250, 250};
  for (const double r : trace) {
    EXPECT_EQ(controller_step(cfg, prod, r).level, ref.step(r));
  }
}

using common::SimTime;

/// Literal transcription of the paper's decision window: count the raw
/// bytes handed over since the window opened; once now - start >= t,
/// cdr is that count divided by the true elapsed span, and the next
/// window opens at now.
class ReferenceWindow {
 public:
  explicit ReferenceWindow(SimTime t) : t_(t) {}

  void open(SimTime now) {
    open_ = true;
    start_ = now;
    bytes_ = 0;
  }

  /// Returns cdr when this call closes the window.
  std::optional<double> add(std::uint64_t n, SimTime now) {
    if (!open_) open(now);
    bytes_ += n;
    const SimTime elapsed = now - start_;
    if (elapsed < t_) return std::nullopt;
    if (elapsed == t_) {
      ++exact_closes_;
    } else {
      ++late_closes_;
    }
    const double cdr = static_cast<double>(bytes_) / elapsed.to_seconds();
    open(now);
    return cdr;
  }

  [[nodiscard]] bool is_open() const { return open_; }
  [[nodiscard]] SimTime start() const { return start_; }
  [[nodiscard]] int exact_closes() const { return exact_closes_; }
  [[nodiscard]] int late_closes() const { return late_closes_; }

 private:
  SimTime t_;
  bool open_ = false;
  SimTime start_;
  std::uint64_t bytes_ = 0;
  int exact_closes_ = 0;
  int late_closes_ = 0;
};

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

class WindowDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WindowDifferential, AdaptivePolicyMatchesNaiveWindow) {
  common::Xoshiro256 rng(GetParam());
  const int levels = 2 + static_cast<int>(rng.below(5));
  const double alpha = rng.uniform(0.05, 0.4);
  const SimTime t = SimTime::ms(100 + static_cast<std::int64_t>(
                                          rng.below(2000)));

  AdaptiveConfig cfg;
  cfg.num_levels = levels;
  cfg.alpha = alpha;
  AdaptivePolicy policy(cfg, t);
  int traces = 0;
  double traced_cdr = 0.0;
  Decision traced;
  policy.set_trace([&](SimTime, double cdr, const Decision& d) {
    ++traces;
    traced_cdr = cdr;
    traced = d;
  });
  ReferenceWindow window(t);
  ReferenceAlgorithm1 reference(levels, alpha);

  SimTime now = SimTime::ms(static_cast<std::int64_t>(rng.below(1000)));
  for (int b = 0; b < 20000; ++b) {
    const std::uint64_t pick = rng.below(16);
    if (pick == 0 && window.is_open() && window.start() + t > now) {
      now = window.start() + t;  // lands exactly on the boundary
    } else if (pick == 1) {
      // A stall: the window closes late, by up to another t.
      now = now + t + SimTime::ns(static_cast<std::int64_t>(
                          rng.below(static_cast<std::uint64_t>(t.nanos()))));
    } else {
      // Jittered block spacing, repeated timestamps included.
      now = now + SimTime::ns(static_cast<std::int64_t>(
                      rng.below(static_cast<std::uint64_t>(t.nanos() / 8))));
    }
    const std::uint64_t n = rng.below(256 << 10);  // 0 .. 256 KiB
    const std::optional<double> want = window.add(n, now);
    const int before = traces;
    policy.on_block(n, now);
    ASSERT_EQ(traces - before, want ? 1 : 0) << "block " << b;
    if (want) {
      ASSERT_EQ(bits(traced_cdr), bits(*want)) << "block " << b;
      ASSERT_EQ(bits(traced.cdr), bits(*want)) << "block " << b;
      ASSERT_EQ(traced.level, reference.step(*want)) << "block " << b;
    }
    ASSERT_EQ(policy.level(), traced.level) << "block " << b;
  }
  EXPECT_GT(window.exact_closes(), 0);
  EXPECT_GT(window.late_closes(), 0);
}

TEST_P(WindowDifferential, EpochClosedWindowMatchesNaiveWindow) {
  // As the fleet does: the window opens at admission, bytes arrive once
  // per epoch, and the window can only close at an epoch end.
  common::Xoshiro256 rng(GetParam());
  const int levels = 2 + static_cast<int>(rng.below(5));
  const double alpha = rng.uniform(0.05, 0.4);
  const SimTime epoch = SimTime::ms(50);
  // Even seeds: t is a whole number of epochs, as the fleet's 2 s is, so
  // every window closes exactly at t. Odd seeds: any t, mostly late.
  const bool whole_epochs = GetParam() % 2 == 0;
  const SimTime t =
      whole_epochs
          ? SimTime::ns(epoch.nanos() *
                        static_cast<std::int64_t>(1 + rng.below(60)))
          : SimTime::ms(10 + static_cast<std::int64_t>(rng.below(3000)));
  const SimTime admitted =
      SimTime::ns(epoch.nanos() * static_cast<std::int64_t>(rng.below(100)));

  AdaptiveConfig cfg;
  cfg.num_levels = levels;
  cfg.alpha = alpha;
  ControllerState st;
  DecisionWindow w{admitted, 0.0, true};
  ReferenceWindow window(t);
  window.open(admitted);
  ReferenceAlgorithm1 reference(levels, alpha);

  double rate = 1e6;
  for (std::int64_t e = 1; e <= 20000; ++e) {
    if (rng.below(50) == 0) {
      rate = rng.uniform(1e5, 1e8);
    } else {
      rate = std::max(1.0, rate * rng.uniform(0.9, 1.1));
    }
    const auto n = static_cast<std::uint64_t>(rate * epoch.to_seconds());
    const SimTime epoch_end = admitted + SimTime::ns(epoch.nanos() * e);
    const std::optional<double> want = window.add(n, epoch_end);
    const std::optional<Decision> got = window_step(
        cfg, t, st, w, static_cast<double>(n), epoch_end);
    ASSERT_EQ(got.has_value(), want.has_value()) << "epoch " << e;
    if (want) {
      ASSERT_EQ(bits(got->cdr), bits(*want)) << "epoch " << e;
      ASSERT_EQ(got->level, reference.step(*want)) << "epoch " << e;
    }
  }
  EXPECT_GT(window.exact_closes() + window.late_closes(), 0);
  if (whole_epochs) {
    EXPECT_EQ(window.late_closes(), 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WindowDifferential,
                         ::testing::Range<std::uint64_t>(1, 11));

}  // namespace
}  // namespace strato::core
