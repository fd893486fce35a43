// Counting global operator new for the allocation-free tests.
//
// A test that links tests/counting_new.cc (see CMakeLists.txt) gets a
// global operator new/delete that counts every allocation, and reads the
// count around its measured window.  The replacement lives in its own
// translation unit so no test ever inlines it: GCC 12 otherwise pairs the
// inlined malloc with an operator delete call and fails -Werror builds
// with -Wmismatched-new-delete.
//
// AddressSanitizer owns the global allocator, and forwarding counting
// wrappers to malloc/free trips its alloc-dealloc-mismatch checker.  Under
// ASan the replacement is left out and the count stays at zero: the
// zero-new assertions become vacuous, and the suites' value is the
// sanitizer's own checking of the recycling.
#pragma once

#include <cstdint>

namespace allarm::test {

/// Global operator new / new[] calls so far in this process.
std::uint64_t allocations();

}  // namespace allarm::test
