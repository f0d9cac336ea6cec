// EventQueue invariants: ordering, FIFO tie-breaking, the past-time
// clamp (regression: a `schedule(at < now())` used to make now() jump
// backward in step()), and the bounded run().
#include <gtest/gtest.h>

#include <vector>

#include "vsim/event_queue.h"

namespace strato::vsim {
namespace {

using common::SimTime;

TEST(EventQueue, FiresInTimeThenInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(SimTime::ms(20), [&] { order.push_back(2); });
  q.schedule(SimTime::ms(10), [&] { order.push_back(0); });
  q.schedule(SimTime::ms(20), [&] { order.push_back(3); });
  q.schedule(SimTime::ms(10), [&] { order.push_back(1); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(q.now(), SimTime::ms(20));
}

TEST(EventQueue, ScheduleInIsRelativeToNow) {
  EventQueue q;
  SimTime seen;
  q.schedule(SimTime::ms(5), [&] {
    q.schedule_in(SimTime::ms(7), [&] { seen = q.now(); });
  });
  q.run();
  EXPECT_EQ(seen, SimTime::ms(12));
}

TEST(EventQueue, PastTimeScheduleClampsToNow) {
  // Regression: the docstring requires at >= now(), but schedule() used
  // to accept a past time verbatim — the event then popped with its stale
  // timestamp and now() ran backward.
  EventQueue q;
  std::vector<SimTime> fired_at;
  q.schedule(SimTime::ms(10), [&] {
    fired_at.push_back(q.now());
    // Scheduled "in the past" from t=10ms: must fire at 10ms, not 3ms.
    q.schedule(SimTime::ms(3), [&] { fired_at.push_back(q.now()); });
  });
  q.run();
  ASSERT_EQ(fired_at.size(), 2u);
  EXPECT_EQ(fired_at[0], SimTime::ms(10));
  EXPECT_EQ(fired_at[1], SimTime::ms(10));
  EXPECT_EQ(q.now(), SimTime::ms(10));  // never moved backward
}

TEST(EventQueue, ClampedEventsKeepFifoOrderAtNow) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(SimTime::ms(10), [&] {
    q.schedule(SimTime::ms(1), [&] { order.push_back(1); });
    q.schedule(SimTime::ms(2), [&] { order.push_back(2); });
  });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueue, RunCountsAndBounds) {
  EventQueue q;
  int fired = 0;
  for (int i = 0; i < 5; ++i) {
    q.schedule(SimTime::ms(i), [&] { ++fired; });
  }
  EXPECT_EQ(q.run(3), 3u);
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(q.run(), 2u);
  EXPECT_EQ(fired, 5);
}

}  // namespace
}  // namespace strato::vsim
