// Inline-storage event callable for the discrete-event kernel.
//
// Every coherence hop schedules a small closure (a captured `this` plus a
// few words of transaction state).  Wrapping those in std::function costs a
// heap allocation per event on the simulator's hottest path; Event instead
// stores the callable in a fixed inline buffer next to one invoke thunk.
//
// Only trivially copyable, trivially destructible closures that fit the
// buffer are accepted; any other callable does not compile.  Event is
// therefore itself trivially copyable: the kernel copies it like a plain
// struct and never runs a destructor.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>

namespace allarm::sim {

/// A trivially copyable `void()` callable of at most kInlineBytes.
class Event {
 public:
  /// Inline capture budget.  Sized so the common coherence closures -- a
  /// `this` pointer plus pooled-transaction-state pointer, or `this` plus a
  /// by-value Request and a word of flags -- fit, while one event-queue
  /// arena node (Event + free-list link, 56 bytes) stays smaller than a
  /// 64-byte cache line.
  static constexpr std::size_t kInlineBytes = 40;

  /// True when `Fn` can be held: trivially copyable and destructible, no
  /// larger than the buffer and at most word-aligned (a max_align_t buffer
  /// would pad Event to 64 bytes and every arena node past a cache line).
  template <typename Fn>
  static constexpr bool kFits = std::is_trivially_copyable_v<Fn> &&
                                std::is_trivially_destructible_v<Fn> &&
                                sizeof(Fn) <= kInlineBytes &&
                                alignof(Fn) <= alignof(void*);

  Event() noexcept = default;

  template <typename F, typename Fn = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<Fn, Event> &&
                                        std::is_invocable_r_v<void, Fn&> &&
                                        kFits<Fn>>>
  Event(F&& fn) noexcept  // NOLINT: implicit by design.
      : invoke_([](void* self) { (*std::launder(static_cast<Fn*>(self)))(); }) {
    ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(fn));
  }

  /// Invokes the callable (which must be present).
  void operator()() { invoke_(storage_); }

  /// Events whose callable spilled to the heap: always 0, because a
  /// callable that would need the heap does not compile.  Kept because
  /// perfbench, the chrono benches and their `event_heap_fallbacks` BENCH
  /// key read it.
  static constexpr std::uint64_t heap_fallbacks() { return 0; }

 private:
  void (*invoke_)(void* self) = nullptr;
  // Zero-initialized so copying an Event never reads indeterminate tail
  // bytes past a short closure.
  alignas(void*) unsigned char storage_[kInlineBytes] = {};
};

static_assert(std::is_trivially_copyable_v<Event> && sizeof(Event) == 48,
              "Event must stay a 48-byte trivially copyable record");

}  // namespace allarm::sim
