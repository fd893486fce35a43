#include "sim/event_queue.hh"

#include <algorithm>

namespace allarm::sim {

void EventQueue::drain_far_slow() {
  const Tick horizon = base_ + kNearBuckets;
  while (!far_.empty() && far_.front().when < horizon) {
    // Heap pops come out in exact (tick, seq) order, and a tick is only
    // ever migrated before any in-window insert can target it, so bucket
    // FIFO order remains global (tick, seq) order.  The node itself never
    // moves -- only its reference leaves the heap.
    std::pop_heap(far_.begin(), far_.end(), Later{});
    link_near(far_.back().node);
    far_.pop_back();
  }
}

std::uint64_t EventQueue::run(std::uint64_t max_events) {
  std::uint64_t n = 0;
  while (n < max_events && run_one()) ++n;
  return n;
}

bool EventQueue::peek_next(Tick& when) const {
  if (near_count_ > 0) {
    // Bucket ticks all lie below base_ + kNearBuckets <= any far tick,
    // so the earliest near event is the global minimum.
    when = nodes_[buckets_[scan_from(base_ & kNearMask)].head].when;
    return true;
  }
  if (!far_.empty()) {
    when = far_.front().when;
    return true;
  }
  return false;
}

void EventQueue::run_until(Tick until) {
  // Peek WITHOUT next_bucket(): that would advance base_ to the next
  // pending tick even when it lies beyond `until`, and an event scheduled
  // afterwards below that tick would land behind the window base and
  // execute out of order.  A pure read keeps base_ <= every executed tick.
  Tick next;
  while (peek_next(next) && next <= until) run_one();
  if (now_ < until) now_ = until;
}

void EventQueue::clear() {
  if (near_count_ != 0) {
    for (std::size_t w = 0; w < live0_.size(); ++w) {
      std::uint64_t word = live0_[w];
      while (word != 0) {
        const std::size_t b = (w << 6) + lowest_set_bit(word);
        word &= word - 1;
        Bucket& bucket = buckets_[b];
        for (std::uint32_t i = bucket.head; i != kNil;) {
          const std::uint32_t next = nodes_[i].next;
          release_node(i);
          i = next;
        }
        bucket.head = bucket.tail = kNil;
      }
      live0_[w] = 0;
    }
    std::fill(live1_.begin(), live1_.end(), 0);
    live2_ = 0;
    near_count_ = 0;
  }
  for (const FarRef& ref : far_) release_node(ref.node);
  far_.clear();
}

}  // namespace allarm::sim
