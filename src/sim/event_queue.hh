// Discrete-event simulation kernel.
//
// A single EventQueue drives the whole system.  Events are closures ordered
// by (tick, insertion sequence); same-tick events execute in FIFO order so
// every run is deterministic.
//
// Structure: one 4-ary min-heap of (tick, seq, node) references over a
// pooled node arena.  The Event payloads stay put in the arena while the
// heap sifts its small references.  (tick, seq) keys are unique, so the
// pop order is exact and independent of the heap's shape.
//
// Steady state performs no heap allocations: events store their callables
// inline (sim::Event), and the node arena and heap recycle their capacity.
// The schedule/execute path is defined inline below so call sites across
// the simulator compile it down without crossing a translation-unit
// boundary.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/types.hh"
#include "sim/event.hh"

namespace allarm::sim {

/// Central event queue and simulation clock.
class EventQueue {
 public:
  using Action = Event;

  /// Current simulated time.
  Tick now() const { return now_; }

  /// Number of events executed so far.
  std::uint64_t events_executed() const { return executed_; }

  /// Number of events currently pending.
  std::size_t pending() const { return heap_.size(); }

  /// Schedules `action` to run at absolute time `when` (>= now()).  The
  /// callable is constructed directly inside the queue's node arena — a
  /// lambda at the call site reaches its execution slot with zero
  /// intermediate Event moves.
  template <typename F>
  void schedule_at(Tick when, F&& action);

  /// Schedules `action` to run `delay` ticks from now.
  template <typename F>
  void schedule_in(Tick delay, F&& action) {
    schedule_at(now_ + delay, std::forward<F>(action));
  }

  /// Executes the next event; returns false when the queue is empty.
  bool run_one();

  /// Runs until the queue drains or `max_events` have executed.
  /// Returns the number of events executed by this call.
  std::uint64_t run(std::uint64_t max_events = ~0ull);

  /// Runs until the queue drains or simulated time exceeds `until`.
  /// Events scheduled at exactly `until` are executed.
  void run_until(Tick until);

  /// Discards all pending events (used between experiment repetitions).
  void clear();

 private:
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};

  /// One pending event's payload plus its free-list link -- pooled.
  struct Node {
    Event action;
    std::uint32_t next_free = kNil;
  };
  static_assert(sizeof(Node) <= 64, "arena node should fit a cache line");
  /// A heap entry: ordering key plus the arena slot.
  struct Ref {
    Tick when;
    std::uint64_t seq;
    std::uint32_t node;
    /// (tick, seq) as one integer: one branch-free compare per heap
    /// step instead of a tick compare plus a tie-break branch.
    unsigned __int128 key() const {
      return static_cast<unsigned __int128>(when) << 64 | seq;
    }
  };

  std::uint32_t make_node();
  void release_node(std::uint32_t index);
  /// Index of the earliest of the children of `parent` (at least one).
  std::size_t min_child(std::size_t parent) const;

  std::vector<Node> nodes_;         ///< Arena backing all pending events.
  std::uint32_t free_head_ = kNil;  ///< Recycled-node list head.
  std::vector<Ref> heap_;           ///< 4-ary min-heap on key().
  Tick now_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t executed_ = 0;
};

// --- Inline hot path ---------------------------------------------------------

inline std::uint32_t EventQueue::make_node() {
  if (free_head_ == kNil) {
    nodes_.emplace_back();
    return static_cast<std::uint32_t>(nodes_.size() - 1);
  }
  const std::uint32_t index = free_head_;
  free_head_ = nodes_[index].next_free;
  return index;
}

inline void EventQueue::release_node(std::uint32_t index) {
  nodes_[index].action = Event{};
  nodes_[index].next_free = free_head_;
  free_head_ = index;
}

template <typename F>
inline void EventQueue::schedule_at(Tick when, F&& action) {
  if (when < now_) {
    throw std::logic_error("EventQueue: scheduling into the past");
  }
  const std::uint32_t index = make_node();
  if constexpr (std::is_same_v<std::decay_t<F>, Event>) {
    nodes_[index].action = std::move(action);
  } else {
    nodes_[index].action.emplace(std::forward<F>(action));
  }
  // Sift up: move later parents down into the hole, then fill it.
  const Ref ref{when, seq_++, index};
  std::size_t hole = heap_.size();
  heap_.emplace_back();
  while (hole > 0) {
    const std::size_t parent = (hole - 1) / 4;
    if (heap_[parent].key() < ref.key()) break;
    heap_[hole] = heap_[parent];
    hole = parent;
  }
  heap_[hole] = ref;
}

inline std::size_t EventQueue::min_child(std::size_t parent) const {
  const std::size_t first = 4 * parent + 1;
  if (first + 3 < heap_.size()) {
    // Full family: a pairwise tournament the compiler turns mostly into
    // conditional moves, not a chain of unpredictable branches.
    const std::size_t a =
        heap_[first + 1].key() < heap_[first].key() ? first + 1 : first;
    const std::size_t b = heap_[first + 3].key() < heap_[first + 2].key()
                              ? first + 3
                              : first + 2;
    return heap_[b].key() < heap_[a].key() ? b : a;
  }
  std::size_t best = first;
  for (std::size_t c = first + 1; c < heap_.size(); ++c) {
    if (heap_[c].key() < heap_[best].key()) best = c;
  }
  return best;
}

inline bool EventQueue::run_one() {
  if (heap_.empty()) return false;

  // Detach the earliest event *before* invoking: the action may schedule
  // new events (growing the arena or the heap).
  const Ref top = heap_.front();
  const Ref last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    // Sift `last` down from the root hole.
    std::size_t hole = 0;
    while (4 * hole + 1 < heap_.size()) {
      const std::size_t child = min_child(hole);
      if (last.key() < heap_[child].key()) break;
      heap_[hole] = heap_[child];
      hole = child;
    }
    heap_[hole] = last;
  }

  now_ = top.when;
  Event action = std::move(nodes_[top.node].action);
  release_node(top.node);
  ++executed_;

  action();
  return true;
}

}  // namespace allarm::sim
