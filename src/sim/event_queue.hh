// Discrete-event simulation kernel.
//
// A single EventQueue drives the whole system.  Events are closures ordered
// by (tick, insertion sequence); same-tick events execute in FIFO order so
// every run is deterministic.
//
// Structure: a two-level calendar queue.  Events within the near horizon
// (kNearBuckets ticks of the queue's window base) land in per-tick FIFO
// buckets -- intrusive lists over a pooled node arena, O(1) to push and
// pop, with a three-level occupancy bitmap locating the next non-empty
// tick in a handful of word scans.  Events beyond the horizon overflow
// into a binary min-heap on (tick, seq) and migrate into the buckets as
// the window advances.  Because the window only moves forward and far
// events migrate the moment the window first covers their tick, bucket
// order is always exact (tick, seq) order: the rewrite is bit-for-bit
// equivalent to the former std::priority_queue kernel.
//
// Steady state performs no heap allocations: events store their callables
// inline (sim::Event), the node arena and heap recycle their capacity, and
// the bitmaps and bucket table are fixed-size.  The schedule/execute path
// is defined inline below so call sites across the simulator compile it
// down without crossing a translation-unit boundary.
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
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
  std::size_t pending() const { return near_count_ + far_.size(); }

  /// Number of pending events currently in the far-horizon overflow heap
  /// (introspection for tests and the throughput bench).
  std::size_t far_pending() const { return far_.size(); }

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
  /// Near-horizon width in ticks (= bucket count).  128 Ki ticks = 131 ns:
  /// wide enough that cache, mesh and DRAM hops (1-60 ns) AND the 100 ns
  /// core timeshare retry schedule into buckets; long think-time and
  /// migration timers (and deeply queued DRAM bursts) overflow into the
  /// far heap, whose entries are 16-byte references into the same node
  /// arena.  Do not shrink below the 100 ns retry: at 2^16 the
  /// migration profile cycles every retry through the far heap
  /// (drain_far_slow on every ~5th event) and loses ~10% throughput even
  /// though the smaller bucket table helps the other profiles.  Window
  /// width never changes event ORDER — (tick, seq) order is exact at any
  /// size — so this constant is a pure performance knob.
  static constexpr std::size_t kNearBuckets = std::size_t{1} << 17;
  static constexpr std::size_t kNearMask = kNearBuckets - 1;
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};

  /// One pending event plus its FIFO link (near buckets) -- pooled.  Far
  /// events live in the same arena; the heap orders lightweight references
  /// so sifting never moves Event storage.
  struct Node {
    Tick when = 0;
    std::uint32_t next = kNil;
    Event action;
  };
  static_assert(sizeof(void*) != 8 || sizeof(Node) == 64,
                "arena node should be exactly one cache line on LP64");
  /// A far-heap reference: ordering key plus the arena slot.
  struct FarRef {
    Tick when;
    std::uint64_t seq;
    std::uint32_t node;
  };
  /// Min-heap comparator: std::push_heap keeps the *largest* on top, so
  /// "later" ordering puts the earliest (tick, seq) at far_[0].
  struct Later {
    bool operator()(const FarRef& a, const FarRef& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };
  /// Head/tail of one per-tick FIFO (indices into nodes_).
  struct Bucket {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
  };

  static unsigned lowest_set_bit(std::uint64_t word) {
#if defined(__GNUC__) || defined(__clang__)
    return static_cast<unsigned>(__builtin_ctzll(word));
#else
    unsigned bit = 0;
    while ((word & 1u) == 0) {
      word >>= 1;
      ++bit;
    }
    return bit;
#endif
  }

  std::uint32_t make_node(Tick when);
  void release_node(std::uint32_t index);
  /// Appends arena node `index` to its tick's bucket FIFO.
  void link_near(std::uint32_t index);
  void mark_live(std::size_t bucket);
  void mark_empty(std::size_t bucket);
  /// Migrates far-heap entries that the window now covers into buckets.
  /// Must run every time `base_` advances; the common no-far case is one
  /// inline branch.
  void drain_far() {
    if (!far_.empty() && far_.front().when < base_ + kNearBuckets) {
      drain_far_slow();
    }
  }
  void drain_far_slow();
  /// Positions `base_` at the next pending tick (migrating far events) and
  /// returns its bucket, or nullptr when the queue is empty.
  Bucket* next_bucket();
  /// Tick of the earliest pending event WITHOUT advancing `base_` (a pure
  /// read, see run_until).  False when the queue is empty.
  bool peek_next(Tick& when) const;
  /// Index of the first non-empty bucket, in ring order from `start`.
  /// Requires near_count_ > 0.
  std::size_t scan_from(std::size_t start) const;
  /// First non-empty bucket at index >= `start`, or kNearBuckets when the
  /// remainder of the table is empty.
  std::size_t scan_linear(std::size_t start) const;

  std::vector<Bucket> buckets_ = std::vector<Bucket>(kNearBuckets);
  // Three-level occupancy bitmap over the bucket table (64-ary tree): bit b
  // of live0_ marks bucket b non-empty, bit w of live1_ marks word w of
  // live0_ non-zero, and so on.  Locating the next non-empty tick is three
  // word scans instead of a walk across (possibly tens of thousands of)
  // empty per-tick buckets.
  std::vector<std::uint64_t> live0_ =
      std::vector<std::uint64_t>(kNearBuckets / 64, 0);
  std::vector<std::uint64_t> live1_ =
      std::vector<std::uint64_t>(kNearBuckets / (64 * 64), 0);
  std::uint64_t live2_ = 0;
  std::vector<Node> nodes_;          ///< Arena backing all pending events.
  std::uint32_t free_head_ = kNil;   ///< Recycled-node list head.
  std::vector<FarRef> far_;          ///< Beyond-horizon overflow (min-heap).
  std::size_t near_count_ = 0;       ///< Events currently in buckets.
  Tick base_ = 0;                    ///< Window start; buckets cover
                                     ///< [base_, base_ + kNearBuckets).
  Tick now_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t executed_ = 0;
};

// --- Inline hot path ---------------------------------------------------------

inline std::uint32_t EventQueue::make_node(Tick when) {
  std::uint32_t index;
  if (free_head_ != kNil) {
    index = free_head_;
    free_head_ = nodes_[index].next;
  } else {
    nodes_.emplace_back();
    index = static_cast<std::uint32_t>(nodes_.size() - 1);
  }
  nodes_[index].when = when;
  return index;
}

inline void EventQueue::release_node(std::uint32_t index) {
  nodes_[index].action = Event{};
  nodes_[index].next = free_head_;
  free_head_ = index;
}

inline void EventQueue::mark_live(std::size_t bucket) {
  live0_[bucket >> 6] |= std::uint64_t{1} << (bucket & 63);
  const std::size_t w0 = bucket >> 6;
  live1_[w0 >> 6] |= std::uint64_t{1} << (w0 & 63);
  live2_ |= std::uint64_t{1} << (w0 >> 6);
}

inline void EventQueue::mark_empty(std::size_t bucket) {
  const std::size_t w0 = bucket >> 6;
  live0_[w0] &= ~(std::uint64_t{1} << (bucket & 63));
  if (live0_[w0] == 0) {
    live1_[w0 >> 6] &= ~(std::uint64_t{1} << (w0 & 63));
    if (live1_[w0 >> 6] == 0) {
      live2_ &= ~(std::uint64_t{1} << (w0 >> 6));
    }
  }
}

inline void EventQueue::link_near(std::uint32_t index) {
  Node& node = nodes_[index];
  node.next = kNil;
  const std::size_t b = node.when & kNearMask;
  Bucket& bucket = buckets_[b];
  if (bucket.head == kNil) {
    bucket.head = bucket.tail = index;
    mark_live(b);
  } else {
    nodes_[bucket.tail].next = index;
    bucket.tail = index;
  }
  ++near_count_;
}

template <typename F>
inline void EventQueue::schedule_at(Tick when, F&& action) {
  if (when < now_) {
    throw std::logic_error("EventQueue: scheduling into the past");
  }
  const std::uint64_t seq = seq_++;
  const std::uint32_t index = make_node(when);
  if constexpr (std::is_same_v<std::decay_t<F>, Event>) {
    nodes_[index].action = std::move(action);
  } else {
    nodes_[index].action.emplace(std::forward<F>(action));
  }
  if (when < base_ + kNearBuckets) {
    // FIFO bucket order encodes `seq` implicitly: appends happen in
    // insertion order, and far migration (below) happens before any
    // in-window insert can target the same tick.
    link_near(index);
  } else {
    far_.push_back(FarRef{when, seq, index});
    std::push_heap(far_.begin(), far_.end(), Later{});
  }
}

inline std::size_t EventQueue::scan_linear(std::size_t start) const {
  // Level 0: the word containing `start`, bits at or above it.
  std::size_t w0 = start >> 6;
  const std::uint64_t head = live0_[w0] & (~std::uint64_t{0} << (start & 63));
  if (head != 0) return (w0 << 6) + lowest_set_bit(head);
  // Level 1: next non-zero level-0 word strictly above w0.
  std::size_t w1 = w0 >> 6;
  const std::uint64_t mid =
      (w0 & 63) == 63 ? 0
                      : live1_[w1] & (~std::uint64_t{0} << ((w0 & 63) + 1));
  if (mid != 0) {
    w0 = (w1 << 6) + lowest_set_bit(mid);
    return (w0 << 6) + lowest_set_bit(live0_[w0]);
  }
  // Level 2: next non-zero level-1 word strictly above w1.
  const std::uint64_t top =
      (w1 & 63) == 63 ? 0 : live2_ & (~std::uint64_t{0} << (w1 + 1));
  if (top != 0) {
    w1 = lowest_set_bit(top);
    w0 = (w1 << 6) + lowest_set_bit(live1_[w1]);
    return (w0 << 6) + lowest_set_bit(live0_[w0]);
  }
  return kNearBuckets;
}

inline std::size_t EventQueue::scan_from(std::size_t start) const {
  // Ring order: [start, end) first, wrapping to [0, start).
  const std::size_t above = scan_linear(start);
  if (above != kNearBuckets) return above;
  const std::size_t below = scan_linear(0);
  if (below != kNearBuckets) return below;
  throw std::logic_error("EventQueue: bitmap empty with near events pending");
}

inline EventQueue::Bucket* EventQueue::next_bucket() {
  if (near_count_ == 0) {
    if (far_.empty()) return nullptr;
    base_ = far_.front().when;
    drain_far();
  } else {
    const std::size_t b = scan_from(base_ & kNearMask);
    base_ = nodes_[buckets_[b].head].when;
    // The window moved forward: pull in far events it now covers.  They
    // all land strictly after `base_` (they were beyond the old horizon),
    // so the minimum just found is unaffected.
    drain_far();
  }
  return &buckets_[base_ & kNearMask];
}

inline bool EventQueue::run_one() {
  Bucket* bucket = next_bucket();
  if (bucket == nullptr) return false;

  // Detach the head node *before* invoking: the action may schedule new
  // events (growing the arena or appending to this very bucket).
  const std::uint32_t index = bucket->head;
  Node& node = nodes_[index];
  now_ = node.when;
  Event action = std::move(node.action);
  bucket->head = node.next;
  if (bucket->head == kNil) {
    bucket->tail = kNil;
    mark_empty(base_ & kNearMask);
  }
  --near_count_;
  release_node(index);
  ++executed_;

  action();
  return true;
}

}  // namespace allarm::sim
