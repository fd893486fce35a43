#include "sim/event_queue.hh"

namespace allarm::sim {

std::uint64_t EventQueue::run(std::uint64_t max_events) {
  std::uint64_t n = 0;
  while (n < max_events && run_one()) ++n;
  return n;
}

void EventQueue::run_until(Tick until) {
  while (!heap_.empty() && heap_.front().when <= until) run_one();
  if (now_ < until) now_ = until;
}

void EventQueue::clear() {
  for (const Ref& ref : heap_) release_node(ref.node);
  heap_.clear();
}

}  // namespace allarm::sim
