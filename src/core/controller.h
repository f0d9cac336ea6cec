// Algorithm 1 — the paper's rate-based adaptive compression controller.
//
// GetNextCompressionLevel(cdr, pdr, ccl) from Section III-A, with the
// surrounding state the paper keeps "outside of the displayed algorithm"
// (Table I): the call counter c, the per-level exponential backoff array
// bck, the probe direction inc, and the previous-window rate pdr.
//
// Design goals encoded here (Section III):
//   * no training phase — all state starts neutral;
//   * no reliance on CPU / bandwidth metrics — the only input is the
//     application data rate cdr measured over the last t seconds;
//   * tolerance of throughput fluctuation via the dead band alpha and the
//     MB-granularity windows.
//
// Behaviour summary per decision window:
//   |cdr - pdr| <= alpha*pdr  : unchanged rate. Once the backoff expires
//                               (c >= 2^bck[ccl]) probe the neighbouring
//                               level in the direction of the last change.
//   cdr > pdr (+alpha band)   : improvement. Reward the current level:
//                               bck[ccl] += 1 (probes grow exponentially
//                               rarer), stay.
//   cdr < pdr (-alpha band)   : degradation. Reset bck[ccl] and revert the
//                               last change immediately.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>

#include "common/sim_time.h"

namespace strato::core {

/// Tunables of Algorithm 1.
struct AdaptiveConfig {
  /// Number of compression levels n (level 0 = no compression).
  int num_levels = 4;
  /// Dead band: relative change in application data rate tolerated before
  /// the algorithm reacts. The paper found 0.2 reasonable.
  double alpha = 0.2;
  /// Disable the exponential backoff (probe every window) — ablation knob;
  /// the paper's scheme always has it on.
  bool backoff_enabled = true;
};

/// Decision record returned by each controller step (for tracing).
struct Decision {
  int level = 0;        ///< ncl: level for the next window
  bool probed = false;  ///< this step was an optimistic probe
  bool reverted = false;///< this step reverted a degradation
  double cdr = 0.0;     ///< the window's rate as measured (step input)
};

/// Ladder sizes the POD controller state can represent. Every ladder in
/// the repository (standard 4, extended 5, test ladders up to 6) fits
/// with room to spare; hosts clamp num_levels to this.
inline constexpr int kMaxControllerLevels = 16;

/// Cap on bck[] exponents, so 2^bck stays in range. Never hit in
/// realistic runs (2^30 windows of 2 s = 68 years).
inline constexpr int kMaxBackoffExponent = 30;
static_assert(kMaxBackoffExponent <= std::numeric_limits<std::int8_t>::max(),
              "bck[] stores exponents as int8");
static_assert(kMaxBackoffExponent < 63,
              "1 << bck must stay a positive int64");

/// The complete Algorithm 1 state as plain old data — 40 bytes, no heap.
///
/// The fleet simulator (vsim::FlowTable) embeds one of these per flow in
/// a structs-of-arrays store, so a million controllers are a million
/// array slots rather than a million heap objects. AdaptivePolicy holds
/// one as well; both step it through window_step().
struct ControllerState {
  std::int64_t c = 0;    ///< windows since the last level change
  double pdr = -1.0;     ///< previous-window rate; <0 = none seen yet
  std::int8_t ccl = 0;   ///< current compression level
  bool inc = true;       ///< last change direction was an increase
  /// Per-level exponential-backoff exponents (bck), <= kMaxBackoffExponent.
  std::int8_t bck[kMaxControllerLevels] = {};
};

/// One decision step of Algorithm 1: feed the application data rate cdr
/// (bytes/second or any consistent unit) of the window that just closed;
/// returns the level to apply next. Non-finite or negative inputs are
/// treated as "rate unchanged". `config.num_levels` must be in
/// [1, kMaxControllerLevels].
Decision controller_step(const AdaptiveConfig& config, ControllerState& st,
                         double cdr);

/// The decision window as plain old data. cdr is "the data rate
/// experienced by the application before compressing the data" (Section
/// III): the raw bytes the application handed to the compression module
/// since `start`. The window runs on SimTime, so the same code serves the
/// wall-clock transports and the simulators. A window that is not open
/// starts at the first window_step() call.
struct DecisionWindow {
  common::SimTime start;
  double bytes = 0.0;  ///< raw bytes this window (fluid hosts: fractional)
  bool open = false;
};

/// The one place Algorithm 1 hosts decide: record `bytes` of raw
/// application data accepted at `now`; once `now - start >= t`, close the
/// window, run controller_step() on cdr = bytes / elapsed (the true span,
/// not the nominal t), reopen the window at `now` and return the decision.
/// Inline because the fleet calls it once per adaptive flow per epoch;
/// only a closing window reaches the out-of-line step.
[[nodiscard]] inline std::optional<Decision> window_step(
    const AdaptiveConfig& config, common::SimTime t, ControllerState& st,
    DecisionWindow& w, double bytes, common::SimTime now) {
  if (!w.open) w = DecisionWindow{now, 0.0, true};
  w.bytes += bytes;
  const common::SimTime elapsed = now - w.start;
  if (elapsed < t) return std::nullopt;
  const Decision dec =
      controller_step(config, st, w.bytes / elapsed.to_seconds());
  w = DecisionWindow{now, 0.0, true};
  return dec;
}

}  // namespace strato::core
