// Allocation instrumentation for the event kernel.
//
// Counts global operator new calls (tests/counting_new.hh) and asserts the
// property of the allocation-free kernel: once warmed up, scheduling and
// executing events performs ZERO heap allocations -- the node arena and
// the heap of references both recycle their capacity.  That every closure
// fits sim::Event's inline buffer is checked at compile time by Event's
// constructor constraint.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hh"
#include "counting_new.hh"
#include "sim/event_queue.hh"
#include "workload/profiles.hh"

namespace allarm::sim {
namespace {

constexpr Tick kFarDelay = 1u << 20;  // Far beyond any coherence hop.

// A self-rescheduling ticker with a representative capture footprint (the
// coherence closures carry a `this` plus a few words): fits inline.
struct Ticker {
  EventQueue* eq;
  std::uint64_t payload[3];
  std::uint64_t limit;
  void operator()() const {
    if (eq->events_executed() < limit) {
      eq->schedule_in(1 + (payload[0] & 0xFF), *this);
    }
  }
};
static_assert(sizeof(Ticker) <= Event::kInlineBytes,
              "representative closure must fit inline storage");

TEST(KernelAllocations, SteadyStateSchedulesWithoutHeapAllocations) {
  EventQueue eq;

  // Warm-up: reach the arena / heap high-water mark.  Several concurrent
  // short-delay tickers plus long-delay ones, so both the arena and the
  // heap see their peak occupancy before measurement starts.
  for (std::uint64_t i = 0; i < 16; ++i) {
    eq.schedule_in(i + 1, Ticker{&eq, {i * 977, i, ~i}, 20000});
  }
  for (std::uint64_t i = 0; i < 4; ++i) {
    eq.schedule_in(kFarDelay + i, Ticker{&eq, {i * 131, i, ~i}, 20000});
  }
  eq.run(10000);

  const std::uint64_t news_before = test::allocations();

  // Measured steady state: tens of thousands of schedule/execute cycles.
  const std::uint64_t executed = eq.run(10000);

  const std::uint64_t news_after = test::allocations();
  EXPECT_EQ(executed, 10000u);
  EXPECT_EQ(news_after - news_before, 0u)
      << "event kernel allocated on the steady-state path";
}

TEST(KernelAllocations, FarHorizonSteadyStateIsAllocationFree) {
  EventQueue eq;

  // Every reschedule lands a million ticks ahead of now().
  struct FarTicker {
    EventQueue* eq;
    std::uint64_t limit;
    void operator()() const {
      if (eq->events_executed() < limit) eq->schedule_in(kFarDelay, *this);
    }
  };
  for (int i = 0; i < 8; ++i) eq.schedule_in(i + 1, FarTicker{&eq, 5000});
  eq.run(2000);

  const std::uint64_t news_before = test::allocations();
  const std::uint64_t executed = eq.run(2000);
  const std::uint64_t news_after = test::allocations();
  EXPECT_EQ(executed, 2000u);
  EXPECT_EQ(news_after - news_before, 0u)
      << "long-delay traffic allocated in steady state";
}

TEST(KernelAllocations, SteadyStateGenerationIsAllocationFree) {
  // Every issued access comes from AccessGenerator::next(), which must
  // allocate nothing once the generator is constructed: no Mix/Phased
  // scratch growth, no lazily built tables.  The measured window starts
  // right after construction, so a first-call setup allocation (a Zipf
  // guide table built on first sample) fails here too.
  SystemConfig config;
  const workload::WorkloadSpec spec =
      workload::make_benchmark("ocean-cont", config, 1000);
  std::vector<std::unique_ptr<workload::AccessGenerator>> generators;
  std::vector<std::uint64_t> lengths;
  for (const workload::ThreadSpec& ts : spec.threads) {
    generators.push_back(ts.make_generator());
    // Cross every Phased warm-up stage boundary into the steady-state mix.
    lengths.push_back(ts.warmup_accesses + 4096);
  }
  generators.push_back(
      std::make_unique<workload::ZipfPages>(0x1000, 1024, 0.9, 0.2));
  lengths.push_back(4096);

  const std::uint64_t news_before = test::allocations();
  for (std::size_t g = 0; g < generators.size(); ++g) {
    Rng rng(g + 1);
    Tick now = 0;
    for (std::uint64_t i = 0; i < lengths[g]; ++i) {
      generators[g]->next(rng, now);
      now += ticks_from_ns(2.0);
    }
  }
  const std::uint64_t news_after = test::allocations();
  EXPECT_EQ(news_after - news_before, 0u)
      << "access generation allocated after construction";
}

}  // namespace
}  // namespace allarm::sim
