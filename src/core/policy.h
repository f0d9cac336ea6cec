// Compression policies.
//
// A CompressionPolicy decides which level each outgoing block is
// compressed with. The channels (real transport and simulator alike) call
// level() before encoding a block and on_block() after the block has been
// accepted downstream, with the current time. The paper's evaluation
// compares four static policies (NO/LIGHT/MEDIUM/HEAVY) against the
// adaptive one (DYNAMIC); related-work baselines live in baselines.h.
#pragma once

#include <algorithm>
#include <functional>
#include <memory>
#include <string>

#include "common/sim_time.h"
#include "core/controller.h"

namespace strato::core {

/// Strategy interface: which compression level to use next.
class CompressionPolicy {
 public:
  virtual ~CompressionPolicy() = default;

  /// Level to apply to the next block.
  [[nodiscard]] virtual int level() const = 0;

  /// Notify: `raw_bytes` of application data were accepted by the channel
  /// at time `now` (i.e. handed to compression + the I/O layer).
  virtual void on_block(std::size_t raw_bytes, common::SimTime now) = 0;

  /// Display name ("DYNAMIC", "LIGHT", ...).
  [[nodiscard]] virtual std::string name() const = 0;
};

/// Fixed level chosen before execution — the paper's static baselines.
class StaticPolicy final : public CompressionPolicy {
 public:
  StaticPolicy(int level, std::string name)
      : level_(level), name_(std::move(name)) {}

  [[nodiscard]] int level() const override { return level_; }
  void on_block(std::size_t, common::SimTime) override {}
  [[nodiscard]] std::string name() const override { return name_; }

 private:
  int level_;
  std::string name_;
};

/// The paper's scheme (DYNAMIC): Algorithm 1 over the application data
/// rate, one decision every t seconds (window_step).
class AdaptivePolicy final : public CompressionPolicy {
 public:
  /// Trace hook fired on every closed decision window.
  using TraceFn =
      std::function<void(common::SimTime now, double cdr, const Decision&)>;

  /// @param config  Algorithm 1 tunables (alpha, levels, backoff);
  ///                num_levels is clamped to [1, kMaxControllerLevels]
  /// @param window  decision interval t (paper: 2 s)
  AdaptivePolicy(AdaptiveConfig config, common::SimTime window)
      : config_(config), t_(window) {
    config_.num_levels =
        std::clamp(config_.num_levels, 1, kMaxControllerLevels);
  }

  [[nodiscard]] int level() const override { return st_.ccl; }

  void on_block(std::size_t raw_bytes, common::SimTime now) override {
    const auto dec = window_step(config_, t_, st_, window_,
                                 static_cast<double>(raw_bytes), now);
    if (dec && trace_) trace_(now, dec->cdr, *dec);
  }

  [[nodiscard]] std::string name() const override { return "DYNAMIC"; }

  /// Observe decisions (used by the timeline benches).
  void set_trace(TraceFn fn) { trace_ = std::move(fn); }

  /// The controller state (read-only snapshot).
  [[nodiscard]] const ControllerState& state() const { return st_; }

 private:
  AdaptiveConfig config_;
  common::SimTime t_;  ///< decision interval
  ControllerState st_;
  DecisionWindow window_;
  TraceFn trace_;
};

}  // namespace strato::core
