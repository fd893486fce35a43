// Unit tests for the discrete-event kernel.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "sim/event_queue.hh"

namespace allarm::sim {
namespace {

TEST(EventQueue, StartsAtTimeZero) {
  EventQueue eq;
  EXPECT_EQ(eq.now(), 0u);
  EXPECT_EQ(eq.pending(), 0u);
}

TEST(EventQueue, ExecutesInTimeOrder) {
  EventQueue eq;
  std::vector<int> order;
  eq.schedule_at(30, [&] { order.push_back(3); });
  eq.schedule_at(10, [&] { order.push_back(1); });
  eq.schedule_at(20, [&] { order.push_back(2); });
  eq.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, SameTickIsFifo) {
  EventQueue eq;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    eq.schedule_at(5, [&order, i] { order.push_back(i); });
  }
  eq.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, EventsCanScheduleEvents) {
  EventQueue eq;
  int fired = 0;
  eq.schedule_at(1, [&] {
    ++fired;
    eq.schedule_in(4, [&] { ++fired; });
  });
  eq.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(eq.now(), 5u);
}

TEST(EventQueue, RejectsSchedulingIntoThePast) {
  EventQueue eq;
  eq.schedule_at(10, [] {});
  eq.run();
  EXPECT_THROW(eq.schedule_at(5, [] {}), std::logic_error);
}

TEST(EventQueue, RunOneReturnsFalseWhenEmpty) {
  EventQueue eq;
  EXPECT_FALSE(eq.run_one());
  eq.schedule_at(1, [] {});
  EXPECT_TRUE(eq.run_one());
  EXPECT_FALSE(eq.run_one());
}

TEST(EventQueue, RunHonoursEventBudget) {
  EventQueue eq;
  int fired = 0;
  for (int i = 0; i < 10; ++i) eq.schedule_at(i, [&] { ++fired; });
  EXPECT_EQ(eq.run(4), 4u);
  EXPECT_EQ(fired, 4);
  EXPECT_EQ(eq.pending(), 6u);
}

TEST(EventQueue, RunUntilStopsAtBoundaryInclusive) {
  EventQueue eq;
  std::vector<Tick> fired;
  for (Tick t : {5u, 10u, 15u}) {
    eq.schedule_at(t, [&fired, &eq] { fired.push_back(eq.now()); });
  }
  eq.run_until(10);
  EXPECT_EQ(fired, (std::vector<Tick>{5, 10}));
  EXPECT_EQ(eq.now(), 10u);
  eq.run();
  EXPECT_EQ(fired.back(), 15u);
}

TEST(EventQueue, RunUntilAdvancesClockWhenIdle) {
  EventQueue eq;
  eq.run_until(100);
  EXPECT_EQ(eq.now(), 100u);
}

TEST(EventQueue, ClearDiscardsPending) {
  EventQueue eq;
  int fired = 0;
  eq.schedule_at(1, [&] { ++fired; });
  eq.clear();
  eq.run();
  EXPECT_EQ(fired, 0);
}

TEST(EventQueue, CountsExecutedEvents) {
  EventQueue eq;
  for (int i = 0; i < 7; ++i) eq.schedule_at(i, [] {});
  eq.run();
  EXPECT_EQ(eq.events_executed(), 7u);
}

TEST(EventQueue, LargeVolumeKeepsOrder) {
  EventQueue eq;
  Tick last = 0;
  bool monotone = true;
  for (int i = 0; i < 20000; ++i) {
    eq.schedule_at(static_cast<Tick>((i * 7919) % 1000), [&, i] {
      monotone = monotone && eq.now() >= last;
      last = eq.now();
    });
  }
  eq.run();
  EXPECT_TRUE(monotone);
}

// Schedules that reach far ahead of now() (over a million ticks, well past
// any single coherence hop): order must stay exact (tick, insertion order)
// however long an event waits and whatever is scheduled in between.

constexpr Tick kFar = 1u << 20;

TEST(EventQueue, DistantEventsExecuteAfterNearOnes) {
  EventQueue eq;
  std::vector<int> order;
  eq.schedule_at(kFar, [&] { order.push_back(2); });
  eq.schedule_at(10, [&] { order.push_back(1); });
  EXPECT_EQ(eq.pending(), 2u);
  eq.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(eq.now(), kFar);
  EXPECT_EQ(eq.pending(), 0u);
}

TEST(EventQueue, SameTickFifoHoldsForLateInserts) {
  // a and b are scheduled for kFar while now() is far below it; c is
  // scheduled for the same tick much later, from an event that runs just
  // before kFar.  FIFO demands a, b, c.
  EventQueue eq;
  std::vector<char> order;
  eq.schedule_at(kFar, [&] { order.push_back('a'); });
  eq.schedule_at(kFar, [&] { order.push_back('b'); });
  eq.schedule_at(kFar - 1000, [&] {
    eq.schedule_at(kFar, [&] { order.push_back('c'); });
  });
  eq.run();
  EXPECT_EQ(order, (std::vector<char>{'a', 'b', 'c'}));
}

TEST(EventQueue, DistantEventsExecuteInTickSeqOrder) {
  EventQueue eq;
  std::vector<int> order;
  const Tick ticks[] = {kFar + 7, kFar + 3, kFar + 7, kFar + 1, kFar + 3};
  for (int i = 0; i < 5; ++i) {
    eq.schedule_at(ticks[i], [&order, i] { order.push_back(i); });
  }
  eq.run();
  // Sorted by (tick, insertion order): 3 (kFar+1), 1, 4 (kFar+3), 0, 2.
  EXPECT_EQ(order, (std::vector<int>{3, 1, 4, 0, 2}));
}

TEST(EventQueue, RunUntilIncludesDistantBoundary) {
  EventQueue eq;
  int fired = 0;
  eq.schedule_at(kFar, [&] { ++fired; });
  eq.schedule_at(kFar + 1, [&] { ++fired; });
  eq.run_until(kFar);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(eq.now(), kFar);
  EXPECT_EQ(eq.pending(), 1u);
  eq.run();
  EXPECT_EQ(fired, 2);
}

TEST(EventQueue, SchedulingAfterIdleRunUntilKeepsOrder) {
  // Regression: run_until's peek must not advance the window base past
  // `until`.  If it does, an event scheduled afterwards below the next
  // pending tick lands behind the window base and runs out of order (and
  // now() runs backwards).
  EventQueue eq;
  std::vector<Tick> fired;
  eq.schedule_at(1000, [&] { fired.push_back(eq.now()); });
  eq.run_until(500);
  EXPECT_EQ(eq.now(), 500u);
  eq.schedule_at(600, [&] { fired.push_back(eq.now()); });
  eq.run();
  EXPECT_EQ(fired, (std::vector<Tick>{600, 1000}));
  EXPECT_EQ(eq.now(), 1000u);
}

TEST(EventQueue, SchedulingAfterIdleRunUntilKeepsOrderForDistantEvent) {
  // Same regression with the pending event far ahead of `until`.
  EventQueue eq;
  std::vector<Tick> fired;
  eq.schedule_at(kFar, [&] { fired.push_back(eq.now()); });
  eq.run_until(500);
  eq.schedule_at(600, [&] { fired.push_back(eq.now()); });
  eq.run();
  EXPECT_EQ(fired, (std::vector<Tick>{600, kFar}));
}

TEST(EventQueue, ClearDiscardsNearAndDistantAndQueueStaysUsable) {
  EventQueue eq;
  int fired = 0;
  eq.schedule_at(5, [&] { ++fired; });
  eq.schedule_at(kFar, [&] { ++fired; });
  eq.clear();
  EXPECT_EQ(eq.pending(), 0u);
  eq.run();
  EXPECT_EQ(fired, 0);
  // A cleared queue keeps working (experiment repetitions reuse it).
  eq.schedule_at(7, [&] { ++fired; });
  eq.schedule_at(kFar + 9, [&] { ++fired; });
  eq.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(eq.now(), kFar + 9);
}

TEST(EventQueue, LargeVolumeWideSpreadKeepsOrder) {
  EventQueue eq;
  Tick last = 0;
  bool monotone = true;
  std::uint64_t fired = 0;
  for (int i = 0; i < 20000; ++i) {
    // Spread ticks over a million-tick span.
    eq.schedule_at(static_cast<Tick>((i * 7919) % 1000000), [&] {
      monotone = monotone && eq.now() >= last;
      last = eq.now();
      ++fired;
    });
  }
  eq.run();
  EXPECT_TRUE(monotone);
  EXPECT_EQ(fired, 20000u);
}

// Differential check against the definition of the kernel's order.  A
// correct queue executes events in strictly increasing (tick, seq) order:
// an event pending when another runs compares later by the heap's key, and
// one scheduled afterwards has a larger seq and a tick >= now().  So the
// executed sequence must equal the stable sort by tick of everything
// scheduled (minus what clear() discarded).  About 100k schedules mix heavy
// same-tick ties, distant ticks, events that schedule events, and
// run/run_until/clear between bursts.
class RandomSchedule {
 public:
  void run() {
    while (budget_ > 0) {
      const unsigned op = rng_() % 64;
      if (op < 40) {
        for (unsigned n = 1 + rng_() % 32; n > 0 && budget_ > 0; --n) {
          schedule(eq_.now() + delay());
        }
      } else if (op < 52) {
        eq_.run(rng_() % 64);
        EXPECT_EQ(eq_.pending(), model_pending());
      } else if (op < 62) {
        check_run_until(eq_.now() + delay());
      } else {
        eq_.clear();
        for (std::uint64_t id = 0; id < scheduled_.size(); ++id) {
          if (!done_[id]) done_[id] = discarded_[id] = 1;
        }
        EXPECT_EQ(eq_.pending(), 0u);
      }
    }
    eq_.run();

    std::vector<std::uint64_t> expected;
    for (std::uint64_t id = 0; id < scheduled_.size(); ++id) {
      if (!discarded_[id]) expected.push_back(id);
    }
    std::stable_sort(expected.begin(), expected.end(),
                     [this](std::uint64_t a, std::uint64_t b) {
                       return scheduled_[a] < scheduled_[b];
                     });
    EXPECT_GE(scheduled_.size(), 100000u);
    EXPECT_EQ(executed_, expected);
    EXPECT_EQ(eq_.events_executed(), executed_.size());
    EXPECT_EQ(clock_errors_, 0u);
  }

 private:
  /// Delays skewed toward ties: most land on a tick that already has
  /// events pending, a few far ahead.
  Tick delay() {
    switch (rng_() % 8) {
      case 0:
      case 1:
      case 2:
        return 0;
      case 3:
      case 4:
        return rng_() % 4;
      case 5:
        return rng_() % 64;
      case 6:
        return rng_() % 4096;
      default:
        return rng_() % (Tick{1} << 22);
    }
  }

  void schedule(Tick when) {
    const std::uint64_t id = scheduled_.size();
    scheduled_.push_back(when);
    done_.push_back(0);
    discarded_.push_back(0);
    --budget_;
    eq_.schedule_at(when, [this, id] { fire(id); });
  }

  void fire(std::uint64_t id) {
    if (eq_.now() != scheduled_[id] || done_[id]) ++clock_errors_;
    done_[id] = 1;
    executed_.push_back(id);
    for (unsigned kids = rng_() % 3; kids > 0 && budget_ > 0; --kids) {
      schedule(eq_.now() + delay());
    }
  }

  void check_run_until(Tick until) {
    const Tick before = eq_.now();
    const std::size_t first = executed_.size();
    eq_.run_until(until);
    EXPECT_EQ(eq_.now(), std::max(before, until));
    for (std::size_t i = first; i < executed_.size(); ++i) {
      if (scheduled_[executed_[i]] > until) ++clock_errors_;
    }
    for (std::uint64_t id = 0; id < scheduled_.size(); ++id) {
      if (!done_[id] && scheduled_[id] <= until) ++clock_errors_;
    }
    EXPECT_EQ(eq_.pending(), model_pending());
  }

  /// Events neither executed nor discarded.
  std::size_t model_pending() const {
    return static_cast<std::size_t>(
        std::count(done_.begin(), done_.end(), char{0}));
  }

  EventQueue eq_;
  std::mt19937_64 rng_{0x5eedf00d};
  std::uint64_t budget_ = 100000;
  std::vector<Tick> scheduled_;      ///< Tick per id; id = schedule order.
  std::vector<char> done_;           ///< Executed or discarded, per id.
  std::vector<char> discarded_;      ///< Dropped by clear(), per id.
  std::vector<std::uint64_t> executed_;
  std::uint64_t clock_errors_ = 0;
};

TEST(EventQueue, MatchesStableSortOnRandomSchedules) {
  RandomSchedule().run();
}

TEST(Event, HoldsNonTriviallyCopyableCallables) {
  // A std::string capture exercises the non-trivial relocate path.
  std::string payload = "the quick brown fox jumps over the lazy dog";
  Event ev([payload, out = std::string()]() mutable { out = payload; });
  Event moved = std::move(ev);
  EXPECT_FALSE(static_cast<bool>(ev));
  EXPECT_TRUE(static_cast<bool>(moved));
  moved();
}

TEST(Event, OversizedCallablesFallBackToHeapAndAreCounted) {
  const std::uint64_t before = Event::heap_fallbacks();
  struct Big {
    char bytes[128];
  };
  Big big{};
  big.bytes[0] = 42;
  int out = 0;
  Event ev([big, &out] { out = big.bytes[0]; });
  EXPECT_EQ(Event::heap_fallbacks(), before + 1);
  ev();
  EXPECT_EQ(out, 42);
}

}  // namespace
}  // namespace allarm::sim
