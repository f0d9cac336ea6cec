#include "core/controller.h"

#include <algorithm>
#include <cmath>

namespace strato::core {

namespace {

/// The paper leaves boundary behaviour implicit; we flip the probe
/// direction at the ends of the ladder so probing never stalls (DESIGN.md
/// §5.3). With a single level there is nowhere to go.
int clamp_probe(const AdaptiveConfig& config, int ncl) {
  if (config.num_levels == 1) return 0;
  if (ncl < 0) return 1;
  if (ncl >= config.num_levels) return config.num_levels - 2;
  return ncl;
}

}  // namespace

Decision controller_step(const AdaptiveConfig& config, ControllerState& st,
                         double cdr) {
  Decision dec;
  dec.cdr = cdr;
  // A rate can only be a finite non-negative number; a NaN/inf/negative
  // input (e.g. a zero-length measurement window) must not poison pdr, or
  // every later comparison would silently misfire. Treat it as "rate
  // unchanged".
  if (!std::isfinite(cdr) || cdr < 0.0) {
    cdr = st.pdr < 0.0 ? 0.0 : st.pdr;
  }
  // "On the first call of the decision algorithm, pdr is set to cdr."
  if (st.pdr < 0.0) st.pdr = cdr;

  const int ccl = st.ccl;
  const double d = cdr - st.pdr;     // line 1
  st.c += 1;                         // line 2
  int ncl = ccl;                     // line 3

  if (std::fabs(d) <= config.alpha * st.pdr) {
    // Lines 4-14: no (significant) change in application data rate.
    const std::int64_t threshold =
        config.backoff_enabled
            ? (std::int64_t{1}
               << std::min<int>(st.bck[ccl], kMaxBackoffExponent))
            : 1;
    if (st.c >= threshold) {
      // Backoff over: optimistically try the neighbouring level.
      ncl = clamp_probe(config, st.inc ? ccl + 1 : ccl - 1);
      st.c = 0;
      dec.probed = ncl != ccl;
    }
  } else if (d > 0) {
    // Lines 15-18: the application data rate improved. Reward the current
    // level with a longer backoff; stay.
    if (config.backoff_enabled) {
      st.bck[ccl] = static_cast<std::int8_t>(
          std::min<int>(st.bck[ccl] + 1, kMaxBackoffExponent));
    }
    st.c = 0;
  } else {
    // Lines 19-27: degradation. Reset this level's backoff and revert the
    // last change immediately.
    st.bck[ccl] = 0;
    ncl = std::clamp(st.inc ? ccl - 1 : ccl + 1, 0, config.num_levels - 1);
    st.c = 0;
    dec.reverted = ncl != ccl;
  }

  // "inc is usually updated outside of the displayed algorithm depending
  // on the input parameter ccl and the return value ncl."
  if (ncl > ccl) {
    st.inc = true;
  } else if (ncl < ccl) {
    st.inc = false;
  }
  st.pdr = cdr;
  st.ccl = static_cast<std::int8_t>(ncl);
  dec.level = ncl;
  return dec;
}

}  // namespace strato::core
