// Virtual disk model with an optional host write-back cache.
//
// Reproduces the paper's Fig. 3 finding: on the XEN setup, guest file
// writes land in the host's page cache at memory-like speed; periodically
// the host flushes, during which the rate displayed inside the VM drops
// to a few MB/s. The long-run mean *displayed* throughput is consequently
// spuriously higher than the physical disk can sustain — "after having
// written the 50 GB ... large portions of the data had not actually been
// written to the physical hard drive".
#pragma once

#include "common/rng.h"
#include "common/sim_time.h"
#include "vsim/link.h"
#include "vsim/profile.h"

namespace strato::vsim {

/// Sequential-writer disk model. A single simulated thread issues writes;
/// write() returns how long each one takes, advancing internal state.
class Disk {
 public:
  Disk(const VirtProfile& profile, std::uint64_t seed);

  /// Duration of a `bytes`-sized write starting at `now` (guest view).
  common::SimTime write(std::uint64_t bytes, common::SimTime now);

  /// Bytes still sitting in the host cache (not on the physical platter).
  [[nodiscard]] double dirty_bytes() const { return dirty_; }

 private:
  const VirtProfile& profile_;
  FluctuationProcess fluct_;
  double dirty_ = 0.0;
  common::SimTime flush_until_;
};

}  // namespace strato::vsim
