// Allocation instrumentation for the event kernel.
//
// Overrides global operator new/delete with counting wrappers and asserts
// the tentpole property of the allocation-free kernel: once warmed up,
// scheduling and executing events whose closures fit sim::Event's inline
// buffer performs ZERO heap allocations -- the node arena and the heap of
// references both recycle their capacity.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "core/experiment.hh"
#include "core/system.hh"
#include "sim/event_queue.hh"
#include "workload/profiles.hh"

namespace {
std::atomic<std::uint64_t> g_news{0};
}  // namespace

// AddressSanitizer owns the global allocator; forwarding counting wrappers
// to malloc/free trips its alloc-dealloc-mismatch checker.  Under ASan the
// counters stay at zero (the zero-new assertions become vacuous) and the
// suite's value is the sanitizer's own checking of the arena recycling.
#if defined(__SANITIZE_ADDRESS__)
#define ALLARM_COUNTING_NEW 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define ALLARM_COUNTING_NEW 0
#else
#define ALLARM_COUNTING_NEW 1
#endif
#else
#define ALLARM_COUNTING_NEW 1
#endif

#if ALLARM_COUNTING_NEW
void* operator new(std::size_t size) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#endif  // ALLARM_COUNTING_NEW

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

  const std::uint64_t fallbacks_before = Event::heap_fallbacks();
  const std::uint64_t news_before = g_news.load(std::memory_order_relaxed);

  // Measured steady state: tens of thousands of schedule/execute cycles.
  const std::uint64_t executed = eq.run(10000);

  const std::uint64_t news_after = g_news.load(std::memory_order_relaxed);
  EXPECT_EQ(executed, 10000u);
  EXPECT_EQ(news_after - news_before, 0u)
      << "event kernel allocated on the steady-state path";
  EXPECT_EQ(Event::heap_fallbacks(), fallbacks_before)
      << "an inline-sized closure fell back to the heap";
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

  const std::uint64_t news_before = g_news.load(std::memory_order_relaxed);
  const std::uint64_t executed = eq.run(2000);
  const std::uint64_t news_after = g_news.load(std::memory_order_relaxed);
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

  const std::uint64_t news_before = g_news.load(std::memory_order_relaxed);
  for (std::size_t g = 0; g < generators.size(); ++g) {
    Rng rng(g + 1);
    Tick now = 0;
    for (std::uint64_t i = 0; i < lengths[g]; ++i) {
      generators[g]->next(rng, now);
      now += ticks_from_ns(2.0);
    }
  }
  const std::uint64_t news_after = g_news.load(std::memory_order_relaxed);
  EXPECT_EQ(news_after - news_before, 0u)
      << "access generation allocated after construction";
}

TEST(KernelAllocations, FullSystemRunNeverSpillsEventsToHeap) {
  // End-to-end: every closure the simulator schedules across a whole
  // multithreaded run must fit sim::Event's inline buffer.
  const std::uint64_t fallbacks_before = Event::heap_fallbacks();
  SystemConfig config;
  const workload::WorkloadSpec spec =
      workload::make_benchmark("ocean-cont", config, 500);
  core::System system(config);
  core::RunOptions options;
  options.seed = 42;
  options.migration_interval = ticks_from_ns(5000.0);
  system.run(spec, options);
  EXPECT_GT(system.events().events_executed(), 0u);
  EXPECT_EQ(Event::heap_fallbacks(), fallbacks_before)
      << "a simulator closure no longer fits Event::kInlineBytes";
}

}  // namespace
}  // namespace allarm::sim
