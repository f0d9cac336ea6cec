// Discrete-event simulation kernel.
//
// A minimal calendar: schedule callbacks at virtual times, pop them in
// (time, insertion) order. Used by the packet-level network simulation
// that cross-validates the fluid transfer pipeline (packet_sim.h).
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "common/sim_time.h"

namespace strato::vsim {

/// Priority queue of timed callbacks with stable FIFO tie-breaking.
class EventQueue {
 public:
  using Callback = std::function<void()>;

  /// Schedule `fn` at absolute time `at` (>= now()). A past-time `at` is
  /// clamped to now(): accepting it verbatim would make now_ jump
  /// backward in step(), and every lazily-advancing process keyed on
  /// non-decreasing time (FluctuationProcess, BgTrafficProcess) would
  /// silently misbehave.
  void schedule(common::SimTime at, Callback fn) {
    if (at < now_) at = now_;
    events_.push(Event{at, seq_++, std::move(fn)});
  }

  /// Schedule `fn` after a delay relative to now().
  void schedule_in(common::SimTime delay, Callback fn) {
    schedule(now_ + delay, std::move(fn));
  }

  /// Pop and run the earliest event; returns false when empty.
  bool step() {
    if (events_.empty()) return false;
    // Moving the callback out requires a const_cast because
    // priority_queue::top() is const; the element is popped immediately.
    Event ev = std::move(const_cast<Event&>(events_.top()));
    events_.pop();
    now_ = ev.at;
    ev.fn();
    return true;
  }

  /// Run until the queue drains or `max_events` have fired.
  /// @returns number of events processed.
  std::uint64_t run(std::uint64_t max_events = UINT64_MAX) {
    std::uint64_t n = 0;
    while (n < max_events && step()) ++n;
    return n;
  }

  [[nodiscard]] common::SimTime now() const { return now_; }
  [[nodiscard]] bool empty() const { return events_.empty(); }

 private:
  struct Event {
    common::SimTime at;
    std::uint64_t seq;
    Callback fn;
    bool operator>(const Event& o) const {
      return at != o.at ? at > o.at : seq > o.seq;
    }
  };

  std::priority_queue<Event, std::vector<Event>, std::greater<>> events_;
  std::uint64_t seq_ = 0;
  common::SimTime now_;
};

}  // namespace strato::vsim
