// Shared RAII guard for cross-dispatch tests: restores the vecmath
// dispatch level on scope exit, so tests compose and a fatal ASSERT inside
// one test body cannot leak a pinned level into every later test of the
// binary (gtest's ASSERT_* return unwinds the stack, so the destructor
// still runs).

#ifndef SPARSEVEC_TESTS_DISPATCH_TEST_UTIL_H_
#define SPARSEVEC_TESTS_DISPATCH_TEST_UTIL_H_

#include "common/vecmath.h"

namespace svt {

class ScopedDispatchLevel {
 public:
  ScopedDispatchLevel() : saved_(vec::ActiveDispatchLevel()) {}
  ~ScopedDispatchLevel() { vec::SetDispatchLevel(saved_); }

  ScopedDispatchLevel(const ScopedDispatchLevel&) = delete;
  ScopedDispatchLevel& operator=(const ScopedDispatchLevel&) = delete;

 private:
  vec::DispatchLevel saved_;
};

}  // namespace svt

#endif  // SPARSEVEC_TESTS_DISPATCH_TEST_UTIL_H_
