#include "common/rng.h"

#include <array>
#include <bit>
#include <bitset>

#include "common/check.h"
#include "common/vecmath.h"

namespace svt {

namespace {

constexpr size_t kLanes = BlockRng::kLanes;

// One xoshiro256++ output and advance of lane `lane` of the flat state
// words (words[w * kLanes + lane] is state word w of that lane): the scalar
// step behind Next(), Advance() and the jump tables. Fill runs the same
// step in the vecmath lanes (vec::FillStream).
uint64_t StepLane(uint64_t* words, size_t lane) {
  uint64_t* const s = words + lane;  // s[w * kLanes]: state word w
  uint64_t s0 = s[0], s1 = s[kLanes], s2 = s[2 * kLanes], s3 = s[3 * kLanes];
  const uint64_t result = std::rotl(s0 + s3, 23) + s0;
  const uint64_t t = s1 << 17;
  s2 ^= s0;
  s3 ^= s1;
  s1 ^= s2;
  s0 ^= s3;
  s2 ^= t;
  s3 = std::rotl(s3, 45);
  s[0] = s0;
  s[kLanes] = s1;
  s[2 * kLanes] = s2;
  s[3 * kLanes] = s3;
  return result;
}

bool LaneIsZero(const BlockRng::State& st, size_t lane) {
  return (st.words[lane] | st.words[kLanes + lane] |
          st.words[2 * kLanes + lane] | st.words[3 * kLanes + lane]) == 0;
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
    StepLane(s.data(), 0);
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
    for (size_t w = 0; w < 4; ++w) {
      state_.words[w * kLanes + lane] = SplitMix64Next(lane_sm);
    }
    // xoshiro requires a nonzero state; SplitMix64 emits four zero words
    // with probability 2^-256 per lane, but guard anyway.
    if (LaneIsZero(state_, lane)) state_.words[lane] = 0x9e3779b97f4a7c15ULL;
  }
}

BlockRng::BlockRng(const State& state) { Restore(state); }

void BlockRng::Restore(const State& state) {
  SVT_CHECK(state.phase < kLanes)
      << "BlockRng state phase out of range: " << state.phase;
  for (size_t lane = 0; lane < kLanes; ++lane) {
    SVT_CHECK(!LaneIsZero(state, lane))
        << "BlockRng lane " << lane << " restored to the all-zero state";
  }
  state_ = state;
}

uint64_t BlockRng::Next() {
  const uint64_t result = StepLane(state_.words.data(), state_.phase);
  state_.phase = (state_.phase + 1) & (kLanes - 1);
  return result;
}

void BlockRng::Fill(std::span<uint64_t> out) {
  vec::FillStream(&state_, out);
}

void BlockRng::StepAllLanes(uint64_t steps) {
  uint64_t* const words = state_.words.data();
  // Below a few hundred steps, stepping beats the 256-step jump.
  constexpr uint64_t kStepOutright = 512;
  if (steps <= kStepOutright) {
    for (uint64_t k = 0; k < steps; ++k) {
      for (size_t lane = 0; lane < kLanes; ++lane) StepLane(words, lane);
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
  // once: the state steps in lockstep while the sum accumulates.
  decltype(state_.words) acc{};
  for (size_t i = 0; i < 256; ++i) {
    if (Coefficient(r, i)) {
      for (size_t k = 0; k < acc.size(); ++k) acc[k] ^= words[k];
    }
    for (size_t lane = 0; lane < kLanes; ++lane) StepLane(words, lane);
  }
  state_.words = acc;
}

void BlockRng::Advance(uint64_t words) {
  // Scalar up to a lane-aligned position, whole lockstep steps of all four
  // lanes, then the remaining lanes one output each — the stream walk of
  // Fill, with the middle jumped instead of generated.
  while (state_.phase != 0 && words > 0) {
    Next();
    --words;
  }
  StepAllLanes(words / kLanes);
  for (uint64_t k = 0; k < words % kLanes; ++k) Next();
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
