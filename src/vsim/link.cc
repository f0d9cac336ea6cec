#include "vsim/link.h"

#include <algorithm>
#include <cmath>

namespace strato::vsim {

FluctuationProcess::FluctuationProcess(FluctuationParams params,
                                       std::uint64_t seed)
    : params_(params), rng_(seed ^ 0xF10C700000000001ULL) {
  if (params_.run_bias_sigma > 0.0) {
    run_bias_ = std::clamp(rng_.gaussian(1.0, params_.run_bias_sigma),
                           0.7, 1.3);
  }
  resample();
}

double FluctuationProcess::factor(common::SimTime now) {
  advance_to(now);
  return current_ * run_bias_;
}

void FluctuationProcess::advance_to(common::SimTime now) {
  while (now >= next_change_) {
    if (params_.kind == FluctuationKind::kTwoState) {
      // Markov switching: choose the next state per the long-run degraded
      // fraction, dwell ~exponential around the mean.
      degraded_ = rng_.uniform() < params_.degraded_prob;
      const double dwell_ms =
          -params_.mean_dwell_ms * std::log(std::max(1e-12, rng_.uniform()));
      next_change_ += common::SimTime::seconds(
          std::max(1.0, dwell_ms) / 1000.0);
    } else {
      next_change_ += common::SimTime::ms(100);
    }
    resample();
  }
}

void FluctuationProcess::resample() {
  if (params_.kind == FluctuationKind::kTwoState && degraded_) {
    current_ =
        rng_.uniform(params_.degraded_floor, params_.degraded_ceil);
  } else {
    current_ = std::clamp(rng_.gaussian(1.0, params_.sigma), 0.3, 1.15);
  }
}

}  // namespace strato::vsim
