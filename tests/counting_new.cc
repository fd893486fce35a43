#include "counting_new.hh"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {
std::atomic<std::uint64_t> g_news{0};
}  // namespace

std::uint64_t allarm::test::allocations() {
  return g_news.load(std::memory_order_relaxed);
}

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
