#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <vector>

namespace afraid {
namespace {

TEST(Simulator, ClockStartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.Now(), 0);
  EXPECT_TRUE(sim.Idle());
}

TEST(Simulator, AfterAdvancesClockToEventTime) {
  Simulator sim;
  SimTime seen = -1;
  sim.After(Milliseconds(5), [&] { seen = sim.Now(); });
  sim.RunToEnd();
  EXPECT_EQ(seen, Milliseconds(5));
  EXPECT_EQ(sim.Now(), Milliseconds(5));
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.After(Milliseconds(10), [&] { ++fired; });
  sim.After(Milliseconds(30), [&] { ++fired; });
  sim.RunUntil(Milliseconds(20));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.Now(), Milliseconds(20));
  sim.RunToEnd();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.Now(), Milliseconds(30));
}

TEST(Simulator, RunUntilAdvancesClockEvenWithoutEvents) {
  Simulator sim;
  sim.RunUntil(Seconds(3));
  EXPECT_EQ(sim.Now(), Seconds(3));
}

TEST(Simulator, EventsScheduleMoreEvents) {
  Simulator sim;
  std::vector<SimTime> times;
  std::function<void()> chain = [&] {
    times.push_back(sim.Now());
    if (times.size() < 5) {
      sim.After(Milliseconds(10), chain);
    }
  };
  sim.After(0, chain);
  sim.RunToEnd();
  ASSERT_EQ(times.size(), 5u);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(times[i], Milliseconds(10) * static_cast<int64_t>(i));
  }
}

TEST(Simulator, CancelPendingEvent) {
  Simulator sim;
  int fired = 0;
  const EventId id = sim.After(Milliseconds(10), [&] { ++fired; });
  EXPECT_TRUE(sim.Cancel(id));
  sim.RunToEnd();
  EXPECT_EQ(fired, 0);
}

TEST(Simulator, StepExecutesOneEvent) {
  Simulator sim;
  int fired = 0;
  sim.After(1, [&] { ++fired; });
  sim.After(2, [&] { ++fired; });
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(sim.Step());
}

TEST(Simulator, CountsProcessedEvents) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) {
    sim.After(i, [] {});
  }
  sim.RunToEnd();
  EXPECT_EQ(sim.EventsProcessed(), 7u);
}

TEST(Simulator, NextEventTimeIsConstCorrect) {
  Simulator sim;
  const EventId id = sim.After(4, [] {});
  sim.After(9, [] {});
  sim.Cancel(id);
  const Simulator& csim = sim;  // Readable from const observers.
  EXPECT_EQ(csim.NextEventTime(), 9);
  EXPECT_FALSE(csim.Idle());
  EXPECT_EQ(csim.PendingEvents(), 1u);
}

TEST(Simulator, SameTimeEventsFifoEvenWhenScheduledFromEvents) {
  Simulator sim;
  std::vector<int> order;
  sim.After(10, [&] {
    order.push_back(1);
    sim.After(0, [&] { order.push_back(3); });  // Same instant, but later seq.
  });
  sim.After(10, [&] { order.push_back(2); });
  sim.RunToEnd();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, AdvanceToMovesTheClockInsideAHandler) {
  Simulator sim;
  std::vector<SimTime> seen;
  sim.After(Milliseconds(10), [&] {
    sim.AdvanceTo(Milliseconds(15));
    seen.push_back(sim.Now());
    // Work scheduled from the advanced clock is relative to it.
    sim.After(Milliseconds(1), [&] { seen.push_back(sim.Now()); });
  });
  sim.After(Milliseconds(20), [&] { seen.push_back(sim.Now()); });
  sim.RunToEnd();
  EXPECT_EQ(seen, (std::vector<SimTime>{Milliseconds(15), Milliseconds(16), Milliseconds(20)}));
  EXPECT_EQ(sim.Now(), Milliseconds(20));
}

TEST(Simulator, HorizonStopsBeforeTheNextEvent) {
  Simulator sim;
  EXPECT_EQ(sim.Horizon(), kSimTimeNever);  // Nothing queued, no deadline.
  SimTime horizon = -1;
  sim.After(Milliseconds(10), [&] { horizon = sim.Horizon(); });
  sim.After(Milliseconds(30), [] {});
  sim.RunToEnd();
  EXPECT_EQ(horizon, Milliseconds(30) - 1);
}

TEST(Simulator, HorizonNeverPassesTheRunUntilDeadline) {
  Simulator sim;
  std::vector<SimTime> horizons;
  const auto probe = [&] { horizons.push_back(sim.Horizon()); };
  sim.After(Milliseconds(10), probe);  // Next event at 15: before the deadline.
  sim.After(Milliseconds(15), probe);  // Next event at 40: past the deadline.
  sim.After(Milliseconds(20), probe);  // The last event before the deadline.
  sim.After(Milliseconds(40), probe);
  sim.RunUntil(Milliseconds(25));
  EXPECT_EQ(horizons, (std::vector<SimTime>{Milliseconds(15) - 1, Milliseconds(20) - 1,
                                            Milliseconds(25)}));
  // The deadline ends with its RunUntil: the next handler sees only the queue.
  sim.After(Milliseconds(5), probe);  // At 30, with 40 still queued.
  sim.RunToEnd();
  EXPECT_EQ(horizons.at(3), Milliseconds(40) - 1);
  EXPECT_EQ(horizons.at(4), kSimTimeNever);
}

TEST(Simulator, HandlerAdvancingToTheHorizonKeepsEventOrder) {
  Simulator sim;
  std::vector<SimTime> seen;
  sim.After(Milliseconds(10), [&] {
    sim.AdvanceTo(sim.Horizon());
    seen.push_back(sim.Now());
  });
  sim.After(Milliseconds(12), [&] { seen.push_back(sim.Now()); });
  sim.After(Milliseconds(50), [&] { seen.push_back(sim.Now()); });
  sim.RunUntil(Milliseconds(30));
  EXPECT_EQ(seen, (std::vector<SimTime>{Milliseconds(12) - 1, Milliseconds(12)}));
  EXPECT_EQ(sim.Now(), Milliseconds(30));
}

}  // namespace
}  // namespace afraid
