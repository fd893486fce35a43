// Inline-storage event callable for the discrete-event kernel.
//
// Every coherence hop schedules a small closure (a captured `this` plus a
// few words of transaction state).  Wrapping those in std::function costs a
// heap allocation per event on the simulator's hottest path; Event instead
// stores the callable inline in a fixed small buffer and only falls back to
// the heap for oversized callables.  The fallback is counted so tests (and
// the throughput bench) can assert that the closures the simulator actually
// schedules never allocate.
//
// Move-only, like the events it carries: an event executes exactly once.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace allarm::sim {

/// A move-only, small-buffer-optimized `void()` callable.
class Event {
 public:
  /// Inline capture budget.  Sized so the common coherence closures -- a
  /// `this` pointer plus pooled-transaction-state pointer, or `this` plus a
  /// by-value Request and a word of flags -- fit without touching the heap,
  /// while one event-queue arena node (Event + free-list link, 56 bytes)
  /// stays smaller than a 64-byte cache line.
  static constexpr std::size_t kInlineBytes = 40;

  /// Inline storage alignment.  Word alignment keeps sizeof(Event) at 48
  /// (a max_align_t buffer would pad it to 64 and grow every arena node
  /// past a cache line); over-aligned callables take the counted heap
  /// fallback.
  static constexpr std::size_t kInlineAlign = alignof(void*);

  Event() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, Event> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  Event(F&& fn) {  // NOLINT: implicit by design (mirrors std::function).
    emplace(std::forward<F>(fn));
  }

  /// Replaces the held callable, constructing the new one directly in the
  /// inline buffer.  The event kernel uses this to build callables in
  /// place inside arena nodes — no intermediate Event, no relocation.
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, Event> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  void emplace(F&& fn) {
    reset();
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineBytes && alignof(Fn) <= kInlineAlign &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(fn));
      ops_ = &inline_ops<Fn>;
    } else {
      ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(fn)));
      ops_ = &heap_ops<Fn>;
      heap_fallbacks_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  Event(Event&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) {
      relocate_from(other);
    }
  }

  Event& operator=(Event&& other) noexcept {
    if (this != &other) {
      reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) {
        relocate_from(other);
      }
    }
    return *this;
  }

  Event(const Event&) = delete;
  Event& operator=(const Event&) = delete;

  ~Event() { reset(); }

  /// True when a callable is held.
  explicit operator bool() const noexcept { return ops_ != nullptr; }

  /// Invokes the callable (which must be present).
  void operator()() { ops_->invoke(storage_); }

  /// Number of Events constructed so far whose callable did not fit the
  /// inline buffer (process-wide; the allocation-free tests pin this).
  static std::uint64_t heap_fallbacks() {
    return heap_fallbacks_.load(std::memory_order_relaxed);
  }

 private:
  struct Ops {
    void (*invoke)(void* self);
    /// Move-constructs the callable into `dst` and destroys it at `src`.
    /// Null when the callable is trivially relocatable: the whole inline
    /// buffer is then moved with a fixed-size memcpy (no indirect call) --
    /// the common case for the {this, state-pointer} captures the
    /// simulator schedules.
    void (*relocate)(void* dst, void* src) noexcept;
    /// Null when destruction is a no-op.
    void (*destroy)(void* self) noexcept;
  };

  template <typename Fn>
  static constexpr bool kTrivialInline =
      std::is_trivially_copyable_v<Fn> && std::is_trivially_destructible_v<Fn>;

  template <typename Fn>
  static constexpr Ops inline_ops = {
      [](void* self) { (*std::launder(reinterpret_cast<Fn*>(self)))(); },
      kTrivialInline<Fn>
          ? nullptr
          : +[](void* dst, void* src) noexcept {
              Fn* from = std::launder(reinterpret_cast<Fn*>(src));
              ::new (dst) Fn(std::move(*from));
              from->~Fn();
            },
      kTrivialInline<Fn>
          ? nullptr
          : +[](void* self) noexcept {
              std::launder(reinterpret_cast<Fn*>(self))->~Fn();
            }};

  // The heap pointer relocates by plain copy, so relocate is null too.
  template <typename Fn>
  static constexpr Ops heap_ops = {
      [](void* self) { (**std::launder(reinterpret_cast<Fn**>(self)))(); },
      nullptr,
      [](void* self) noexcept {
        delete *std::launder(reinterpret_cast<Fn**>(self));
      }};

  void relocate_from(Event& other) noexcept {
    if (ops_->relocate != nullptr) {
      ops_->relocate(storage_, other.storage_);
    } else {
      std::memcpy(storage_, other.storage_, kInlineBytes);
    }
    other.ops_ = nullptr;
  }

  void reset() noexcept {
    if (ops_ != nullptr) {
      if (ops_->destroy != nullptr) ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  static inline std::atomic<std::uint64_t> heap_fallbacks_{0};

  const Ops* ops_ = nullptr;
  // Zero-initialized so the fixed-size relocation memcpy never reads
  // indeterminate tail bytes (keeps -Wmaybe-uninitialized quiet; the dead
  // stores vanish under optimization when a callable is installed).
  alignas(kInlineAlign) unsigned char storage_[kInlineBytes] = {};
};

}  // namespace allarm::sim
