// Fixture: a host closing its own window and stepping Algorithm 1 itself
// instead of deciding through core::window_step, the one caller of
// controller_step() outside core/controller.* (this comment's mention
// does not count).
#include "core/controller.h"

int fixture_bad_decision(const strato::core::AdaptiveConfig& config,
                         strato::core::ControllerState& st, double bytes,
                         double win_s) {
  const auto d = strato::core::controller_step(config, st, bytes / win_s);
  using strato::core::controller_step;
  return d.level + controller_step (config, st, 0.0).level;
}
