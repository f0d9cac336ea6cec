// Shared network link model.
//
// One physical 1 GBit/s NIC/switch port carries the job's TCP flow plus
// the background flows of co-located VMs. The model is a weighted
// max-min share with a time-varying capacity factor:
//
//   fg_rate(t) = capacity * factor(t) / (1 + w_bg * k)
//
// where k is the number of concurrent background flows. w_bg = 0.65 is
// calibrated so the NO-compression column of Table II reproduces the
// paper's contention shape (569/908/1393/1642 s; DESIGN.md §5.5).
// TransferExperiment::run evaluates this closed form over link 0 of
// Topology::single (vsim/topology.h), whose LinkBank supplies
// capacity * factor(t); the packet model weighs its background flows'
// round-robin quanta by the same w_bg, and the fleet's MaxMinAllocator
// generalizes the share to a whole fabric.
//
// factor(t) is the per-profile fluctuation process: Gaussian wobble for
// the local cloud, a two-state Markov chain with ~30 ms dwell times for
// EC2 (throughput swinging between ~full and a small fraction of the
// link, as Fig. 2 and Wang & Ng report).
#pragma once

#include "common/rng.h"
#include "common/sim_time.h"
#include "vsim/profile.h"

namespace strato::vsim {

/// Background-flow weight w_bg (see file comment).
inline constexpr double kBackgroundFlowWeight = 0.65;

/// Time-varying capacity factor in (0, ~1.1]. Lazily advances its state
/// to the queried time; queries must be non-decreasing in time.
class FluctuationProcess {
 public:
  FluctuationProcess(FluctuationParams params, std::uint64_t seed);

  /// Capacity factor at (virtual) time `now`.
  double factor(common::SimTime now);

 private:
  void advance_to(common::SimTime now);
  void resample();

  FluctuationParams params_;
  common::Xoshiro256 rng_;
  common::SimTime next_change_;
  double current_ = 1.0;
  double run_bias_ = 1.0;
  bool degraded_ = false;
};

}  // namespace strato::vsim
