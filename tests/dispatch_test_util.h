// Shared RAII guards for cross-dispatch tests: restore the vecmath
// dispatch level (and the bound-prefilter gate) on scope exit, so tests
// compose and a fatal ASSERT inside one test body cannot leak a pinned
// level into every later test of the binary (gtest's ASSERT_* return
// unwinds the stack, so the destructor still runs).

#ifndef SPARSEVEC_TESTS_DISPATCH_TEST_UTIL_H_
#define SPARSEVEC_TESTS_DISPATCH_TEST_UTIL_H_

#include "common/vecmath.h"
#include "data/bound_prefilter.h"

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

class ScopedPrefilterGate {
 public:
  ScopedPrefilterGate() : saved_(BoundPrefilterEnabled()) {}
  ~ScopedPrefilterGate() { SetBoundPrefilterEnabled(saved_); }

  ScopedPrefilterGate(const ScopedPrefilterGate&) = delete;
  ScopedPrefilterGate& operator=(const ScopedPrefilterGate&) = delete;

 private:
  bool saved_;
};

}  // namespace svt

#endif  // SPARSEVEC_TESTS_DISPATCH_TEST_UTIL_H_
