// Token-bucket rate limiter.
//
// The real-time transport (examples, integration tests) throttles an
// in-process pipe to a configurable bandwidth with this bucket, standing in
// for the 1 GBit/s shared link of the paper's testbed. The bucket runs on
// the injected Clock so tests can drive it deterministically.
#pragma once

#include <algorithm>
#include <cstdint>

#include "common/sim_time.h"

namespace strato::common {

/// Classic token bucket: capacity `burst` bytes, refilled at `rate`
/// bytes/second. Thread-compatible (callers serialize externally).
class TokenBucket {
 public:
  /// @param rate_bytes_per_sec  sustained throughput
  /// @param burst_bytes         maximum accumulated credit
  TokenBucket(double rate_bytes_per_sec, double burst_bytes)
      : rate_(rate_bytes_per_sec), burst_(burst_bytes), tokens_(burst_bytes) {}

  /// Update the sustained rate (bytes/second) without losing credit.
  void set_rate(double rate_bytes_per_sec) { rate_ = rate_bytes_per_sec; }
  [[nodiscard]] double rate() const { return rate_; }
  [[nodiscard]] double burst() const { return burst_; }

  /// Try to consume `n` bytes at time `now`. Returns true on success.
  [[nodiscard]] bool try_consume(std::uint64_t n, SimTime now) {
    refill(now);
    const auto need = static_cast<double>(n);
    if (tokens_ + 1e-9 >= need) {
      tokens_ -= need;
      return true;
    }
    return false;
  }

  /// Time at which `n` bytes will be available (>= now); consume nothing.
  [[nodiscard]] SimTime ready_at(std::uint64_t n, SimTime now) {
    refill(now);
    const auto need = static_cast<double>(n);
    if (tokens_ >= need) return now;
    const double deficit = need - tokens_;
    const double wait_s = rate_ > 0 ? deficit / rate_ : 1e18;
    return now + SimTime::seconds(wait_s);
  }

  /// Consume `n` bytes unconditionally (tokens may go negative, modelling
  /// a queue that drains later).
  void consume(std::uint64_t n, SimTime now) {
    refill(now);
    tokens_ -= static_cast<double>(n);
  }

  [[nodiscard]] double tokens() const { return tokens_; }

 private:
  void refill(SimTime now) {
    if (now > last_) {
      tokens_ = std::min(burst_,
                         tokens_ + rate_ * (now - last_).to_seconds());
      last_ = now;
    }
  }

  double rate_;
  double burst_;
  double tokens_;
  SimTime last_;
};

}  // namespace strato::common
