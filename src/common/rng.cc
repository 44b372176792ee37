#include "common/rng.h"

#include <algorithm>
#include <array>
#include <bitset>

#include "common/check.h"
#include "common/rng_lockstep.h"
#include "common/vecmath.h"

namespace svt {

namespace {

// One lockstep step of all four lanes is pure integer arithmetic, so the
// scalar loop and the SIMD kernels below are bit-identical by construction
// (no rounding anywhere); the kernels differ only in how many lanes one
// instruction advances. The step primitives themselves live in
// common/rng_lockstep.h, shared with the lane-resident megakernels in
// vecmath.cc — one implementation of the stream to audit. `s` points at
// the SoA state block: s[w * 4 + lane] is state word w of lane `lane`, so
// one 256-bit load covers one word of all four lanes.

void FillLockstepScalar(uint64_t* s, uint64_t* p, size_t steps) {
  // Register-resident reference lane: lift the 16 state words out of
  // memory for the whole span, exactly like the pre-lockstep block kernel.
  uint64_t s0[4], s1[4], s2[4], s3[4];
  for (int j = 0; j < 4; ++j) {
    s0[j] = s[j];
    s1[j] = s[4 + j];
    s2[j] = s[8 + j];
    s3[j] = s[12 + j];
  }
  for (size_t step = 0; step < steps; ++step) {
    for (int j = 0; j < 4; ++j) {
      p[j] = lockstep::Rotl(s0[j] + s3[j], 23) + s0[j];
      const uint64_t t = s1[j] << 17;
      s2[j] ^= s0[j];
      s3[j] ^= s1[j];
      s1[j] ^= s2[j];
      s0[j] ^= s3[j];
      s2[j] ^= t;
      s3[j] = lockstep::Rotl(s3[j], 45);
    }
    p += 4;
  }
  for (int j = 0; j < 4; ++j) {
    s[j] = s0[j];
    s[4 + j] = s1[j];
    s[8 + j] = s2[j];
    s[12 + j] = s3[j];
  }
}

#if SVT_LOCKSTEP_HAVE_AVX2

__attribute__((target("avx2"))) void FillLockstepAvx2(uint64_t* s,
                                                      uint64_t* p,
                                                      size_t steps) {
  __m256i s0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(s));
  __m256i s1 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(s + 4));
  __m256i s2 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(s + 8));
  __m256i s3 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(s + 12));
  for (size_t step = 0; step < steps; ++step) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p),
                        lockstep::Step4Avx2(s0, s1, s2, s3));
    p += 4;
  }
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(s), s0);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(s + 4), s1);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(s + 8), s2);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(s + 12), s3);
}

#endif  // SVT_LOCKSTEP_HAVE_AVX2

#if SVT_LOCKSTEP_HAVE_AVX512

// AVX-512VL variant: same four 256-bit lanes, but the two rotates in the
// shared step use the native 64-bit rotate instruction (vprolq) instead
// of shift+shift+or — the rotation is exact either way, so outputs are
// bit-identical.
__attribute__((target("avx512f,avx512vl"))) void FillLockstepAvx512(
    uint64_t* s, uint64_t* p, size_t steps) {
  __m256i s0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(s));
  __m256i s1 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(s + 4));
  __m256i s2 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(s + 8));
  __m256i s3 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(s + 12));
  for (size_t step = 0; step < steps; ++step) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p),
                        lockstep::Step4Avx512(s0, s1, s2, s3));
    p += 4;
  }
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(s), s0);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(s + 4), s1);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(s + 8), s2);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(s + 12), s3);
}

#endif  // SVT_LOCKSTEP_HAVE_AVX512

void FillLockstep(uint64_t* s, uint64_t* p, size_t steps) {
#if SVT_LOCKSTEP_HAVE_AVX512
  if (vec::ActiveDispatchLevel() >= vec::DispatchLevel::kAvx512) {
    FillLockstepAvx512(s, p, steps);
    return;
  }
#endif
#if SVT_LOCKSTEP_HAVE_AVX2
  if (vec::ActiveDispatchLevel() >= vec::DispatchLevel::kAvx2) {
    FillLockstepAvx2(s, p, steps);
    return;
  }
#endif
  FillLockstepScalar(s, p, steps);
}

// Jump-ahead over GF(2). A polynomial of degree < 256 is four words, bit b
// of word i the coefficient of x^(64i + b) — the layout of the reference
// xoshiro256 jump constants.
using Poly256 = std::array<uint64_t, 4>;

bool Coefficient(const Poly256& a, size_t i) {
  return (a[i / 64] >> (i % 64) & 1) != 0;
}

// The characteristic polynomial p of one lane's state transition, stored
// without its x^256 term, and x^(2^i) mod p for every i a 64-bit step
// count can set.
struct JumpTables {
  Poly256 low{};
  std::array<Poly256, 64> x_pow2{};
};

// r · x mod p.
void MulX(const JumpTables& t, Poly256& r) {
  const uint64_t carry = r[3] >> 63;
  r[3] = r[3] << 1 | r[2] >> 63;
  r[2] = r[2] << 1 | r[1] >> 63;
  r[1] = r[1] << 1 | r[0] >> 63;
  r[0] <<= 1;
  if (carry != 0) {
    for (size_t w = 0; w < 4; ++w) r[w] ^= t.low[w];
  }
}

// a · b mod p, by Horner's rule over a's coefficients.
Poly256 MulMod(const JumpTables& t, const Poly256& a, const Poly256& b) {
  Poly256 r{};
  for (size_t i = 256; i-- > 0;) {
    MulX(t, r);
    if (Coefficient(a, i)) {
      for (size_t w = 0; w < 4; ++w) r[w] ^= b[w];
    }
  }
  return r;
}

// Berlekamp–Massey over the bit sequence y_N = bit 0 of state word 0 after
// N transitions of a fixed nonzero lane state. The sequence's minimal
// polynomial divides p; p is primitive (xoshiro256's period is 2^256 - 1),
// hence irreducible, so the minimal polynomial is p itself and 512 terms
// determine it.
JumpTables BuildJumpTables() {
  constexpr size_t kDegree = 256;
  constexpr size_t kTerms = 2 * kDegree;
  std::array<uint64_t, 16> s{};
  for (size_t w = 0; w < 4; ++w) s[w * 4] = 0x9e3779b97f4a7c15ULL * (w + 1);
  // Connection polynomial c(x) = 1 + c_1 x + ... + c_L x^L with
  // y_N = c_1 y_(N-1) + ... + c_L y_(N-L) for every N >= L; c has no
  // terms above x^L, so the discrepancy at N is the parity of c AND the
  // window whose bit i is y_(N-i).
  std::bitset<kTerms + 1> c, b, window;
  c[0] = b[0] = true;
  size_t len = 0, shift = 1;
  for (size_t n = 0; n < kTerms; ++n) {
    window <<= 1;
    window[0] = s[0] & 1;
    lockstep::StepLaneSoA(s.data(), 0);
    const bool d = (c & window).count() % 2 != 0;
    if (!d) {
      ++shift;
    } else if (2 * len <= n) {
      const std::bitset<kTerms + 1> prev = c;
      c ^= b << shift;
      len = n + 1 - len;
      b = prev;
      shift = 1;
    } else {
      c ^= b << shift;
      ++shift;
    }
  }
  SVT_CHECK(len == kDegree) << "xoshiro256 minimal polynomial has degree "
                            << len << ", not 256";
  // p(x) = x^256 c(1/x): the coefficient of x^k is c_(256-k).
  JumpTables t;
  for (size_t k = 0; k < kDegree; ++k) {
    if (c[kDegree - k]) t.low[k / 64] |= uint64_t{1} << (k % 64);
  }
  t.x_pow2[0] = {2, 0, 0, 0};
  for (size_t i = 1; i < t.x_pow2.size(); ++i) {
    t.x_pow2[i] = MulMod(t, t.x_pow2[i - 1], t.x_pow2[i - 1]);
  }
  return t;
}

const JumpTables& Jumps() {
  static const JumpTables tables = BuildJumpTables();
  return tables;
}

}  // namespace

uint64_t SplitMix64Next(uint64_t& state) {
  uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

BlockRng::BlockRng(uint64_t seed) {
  // Stream definition, seeding half: one SplitMix64 key per lane in lane
  // order, each key expanded by its own SplitMix64 sequence into the
  // lane's four state words.
  uint64_t sm = seed;
  for (size_t lane = 0; lane < kLanes; ++lane) {
    uint64_t lane_sm = SplitMix64Next(sm);
    for (int w = 0; w < 4; ++w) s_[w][lane] = SplitMix64Next(lane_sm);
    // xoshiro requires a nonzero state; SplitMix64 emits four zero words
    // with probability 2^-256 per lane, but guard anyway.
    if (s_[0][lane] == 0 && s_[1][lane] == 0 && s_[2][lane] == 0 &&
        s_[3][lane] == 0) {
      s_[0][lane] = 0x9e3779b97f4a7c15ULL;
    }
  }
}

BlockRng::BlockRng(const State& state) { Restore(state); }

void BlockRng::Restore(const State& state) {
  SVT_CHECK(state.phase < kLanes)
      << "BlockRng state phase out of range: " << state.phase;
  phase_ = state.phase;
  for (size_t lane = 0; lane < kLanes; ++lane) {
    for (int w = 0; w < 4; ++w) s_[w][lane] = state.words[w * kLanes + lane];
    SVT_CHECK(s_[0][lane] != 0 || s_[1][lane] != 0 || s_[2][lane] != 0 ||
              s_[3][lane] != 0)
        << "BlockRng lane " << lane << " restored to the all-zero state";
  }
}

uint64_t BlockRng::StepLane(size_t lane) {
  return lockstep::StepLaneSoA(&s_[0][0], lane);
}

uint64_t BlockRng::Next() {
  const uint64_t result = StepLane(phase_);
  phase_ = (phase_ + 1) & (kLanes - 1);
  return result;
}

void BlockRng::Fill(std::span<uint64_t> out) {
  // Scalar until the next output is lane 0's (a lane-aligned stream
  // position), then whole lockstep steps, then a scalar tail for the
  // trailing partial step. Lives exactly once so the "one identical stream
  // at every level" contract has one implementation to audit. An empty
  // span may carry a null data(); bail before the pointer arithmetic.
  if (out.empty()) return;
  uint64_t* p = out.data();
  uint64_t* const end = p + out.size();
  while (phase_ != 0 && p < end) *p++ = Next();
  const size_t steps = static_cast<size_t>(end - p) / kLanes;
  if (steps > 0) {
    FillLockstep(&s_[0][0], p, steps);
    p += steps * kLanes;
  }
  while (p < end) *p++ = Next();
}

void BlockRng::StepAllLanes(uint64_t steps) {
  // Below a few hundred steps, stepping beats the 256-step jump.
  constexpr uint64_t kStepOutright = 512;
  if (steps <= kStepOutright) {
    for (uint64_t k = 0; k < steps; ++k) {
      for (size_t lane = 0; lane < kLanes; ++lane) StepLane(lane);
    }
    return;
  }
  // T^steps = r(T), r = x^steps mod p, the product of the tabled powers
  // x^(2^i) over the set bits of `steps`.
  const JumpTables& t = Jumps();
  Poly256 r{1, 0, 0, 0};
  for (size_t i = 0; i < t.x_pow2.size(); ++i) {
    if ((steps >> i & 1) != 0) r = MulMod(t, r, t.x_pow2[i]);
  }
  // r(T) s = sum over the coefficients of r of T^i s, for every lane at
  // once: the SoA state steps in lockstep while the sum accumulates.
  std::array<std::array<uint64_t, kLanes>, 4> acc{};
  for (size_t i = 0; i < 256; ++i) {
    if (Coefficient(r, i)) {
      for (size_t w = 0; w < 4; ++w) {
        for (size_t lane = 0; lane < kLanes; ++lane) {
          acc[w][lane] ^= s_[w][lane];
        }
      }
    }
    for (size_t lane = 0; lane < kLanes; ++lane) StepLane(lane);
  }
  s_ = acc;
}

void BlockRng::Advance(uint64_t words) {
  // Scalar up to a lane-aligned position, whole lockstep steps of all four
  // lanes, then the remaining lanes one output each — the stream walk of
  // Fill, with the middle jumped instead of generated.
  while (phase_ != 0 && words > 0) {
    Next();
    --words;
  }
  StepAllLanes(words / kLanes);
  for (uint64_t k = 0; k < words % kLanes; ++k) Next();
}

BlockRng::State BlockRng::state() const {
  State st;
  for (size_t lane = 0; lane < kLanes; ++lane) {
    for (int w = 0; w < 4; ++w) st.words[w * kLanes + lane] = s_[w][lane];
  }
  st.phase = phase_;
  return st;
}

Rng::Rng(uint64_t seed) : core_(seed) {}

Rng::Rng(const State& state) : core_(state) {}

uint64_t Rng::NextUint64() { return core_.Next(); }

uint64_t Rng::NextBounded(uint64_t bound) {
  // bound == 0 would make the threshold computation below divide by zero;
  // fail loudly instead of raising SIGFPE (regression-tested).
  SVT_CHECK(bound > 0) << "NextBounded requires bound > 0";
  // Rejection sampling over the top of the range to avoid modulo bias
  // (Lemire's threshold formulation).
  const uint64_t threshold = (-bound) % bound;
  for (;;) {
    const uint64_t r = NextUint64();
    if (r >= threshold) return r % bound;
  }
}

void Rng::FillUint64(std::span<uint64_t> out) { core_.Fill(out); }

namespace {

// Stack block size for the uint64 -> double transforms: 4 KiB, well inside
// L1 alongside the caller's output buffer.
constexpr size_t kFillBlock = 512;

}  // namespace

void Rng::FillDouble(std::span<double> out) {
  uint64_t words[kFillBlock];
  size_t done = 0;
  while (done < out.size()) {
    const size_t n = std::min(kFillBlock, out.size() - done);
    FillUint64({words, n});
    for (size_t i = 0; i < n; ++i) out[done + i] = ToUnitDouble(words[i]);
    done += n;
  }
}

void Rng::FillDoublePositive(std::span<double> out) {
  uint64_t words[kFillBlock];
  size_t done = 0;
  while (done < out.size()) {
    const size_t n = std::min(kFillBlock, out.size() - done);
    FillUint64({words, n});
    for (size_t i = 0; i < n; ++i) {
      out[done + i] = ToUnitDoublePositive(words[i]);
    }
    done += n;
  }
}

double Rng::NextDouble() { return ToUnitDouble(NextUint64()); }

double Rng::NextDoublePositive() {
  return ToUnitDoublePositive(NextUint64());
}

double Rng::NextUniform(double lo, double hi) {
  SVT_DCHECK(lo <= hi);
  return lo + (hi - lo) * NextDouble();
}

bool Rng::NextBernoulli(double p) {
  return NextDouble() < p;
}

Rng Rng::Fork() {
  // Key-splitting: the child is a fresh generator seeded (via the
  // BlockRng seeding expansion) from one parent draw. Unlike jump-based
  // schemes this is safe for *nested* forks — a tree of forks
  // (eval/experiment.cc forks per run, then per method) lands every leaf
  // at an unrelated state instead of re-entering blocks handed out
  // elsewhere in the tree. Two caveats, both negligible here: separation
  // is probabilistic (each xoshiro lane is a single cycle; SplitMix64
  // seeding places children ~2^255 draws apart in expectation), and
  // distinct parents that happen to emit the same 64-bit value
  // (p ≈ 2^-64 per pair) would spawn identical children.
  //
  // Long-jumping the *child* is outright wrong (the jump is GF(2)-linear
  // and commutes with the transition, so consecutive children would be
  // one-step-shifted copies of one stream), and long-jumping the *parent*
  // is only flat-safe: a child's own Fork() would jump it straight into
  // the parent's next handout block.
  return Rng(NextUint64());
}

}  // namespace svt
