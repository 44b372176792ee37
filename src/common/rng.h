// Deterministic pseudo-random number generation.
//
// All randomness in the library flows through svt::Rng so that (a) every
// mechanism is reproducible from a seed, and (b) results are identical
// across platforms and standard libraries. The std::* distribution classes
// are explicitly avoided because the C++ standard does not pin down their
// algorithms; the samplers in distributions.h are hand-written inverse-CDF
// transforms over Rng's 53-bit uniforms.
//
// The generator is a four-lane lockstep xoshiro256++ (Blackman & Vigna)
// block generator (BlockRng below): the output stream is the round-robin
// interleave of four independent xoshiro256++ lanes, each seeded through
// SplitMix64 key-splitting. The interleaved definition is what lets the
// bulk FillUint64 path run all four lanes in SIMD registers (vecmath's
// generator, behind its runtime dispatch) while the scalar Next* calls
// walk the exact same stream one word at a time — block and scalar draws
// are interchangeable draw for draw at every dispatch level.

#ifndef SPARSEVEC_COMMON_RNG_H_
#define SPARSEVEC_COMMON_RNG_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>

namespace svt {

/// SplitMix64 step; used for seeding and as a cheap stateless mixer.
/// Advances `state` and returns the next 64-bit output.
uint64_t SplitMix64Next(uint64_t& state);

/// Four xoshiro256++ lanes run in lockstep, emitting one interleaved
/// stream. This is the engine behind Rng; it is exposed separately so the
/// stream definition — the draw-order contract's step 5 — has one named
/// owner, and so tests can pin the lane layout directly.
///
/// Stream definition (pinned; golden-tested in common_rng_block_test.cc):
///
///   * Seeding: a SplitMix64 sequence started at `seed` emits one 64-bit
///     key per lane, in lane order 0..3; lane j's four state words are the
///     first four outputs of a fresh SplitMix64 sequence started at key_j
///     (identical to the pre-PR-4 single-lane seeding applied per lane).
///   * Output k of the stream is lane (k mod 4)'s xoshiro256++ output at
///     step floor(k / 4) — lane-interleaved, so four consecutive outputs
///     at a lane-aligned position are one step of all four lanes.
///
/// Next() and Fill() walk this one stream. Next() is the scalar step;
/// Fill() is vecmath's generator (vec::FillStream), which runs lane-aligned
/// spans as SIMD lockstep steps at the active dispatch level and is
/// bit-identical to a Next() loop at every level — xoshiro is pure integer
/// arithmetic, so lanes cannot diverge by rounding.
class BlockRng {
 public:
  /// Lane count. Fixed by the stream definition: changing it changes every
  /// stream (a golden re-record), not just performance.
  static constexpr size_t kLanes = 4;

  /// Full state snapshot: the 16 xoshiro words in lane-interleaved order
  /// (words[w * kLanes + lane] is state word w of lane `lane`) plus the
  /// lane that emits the next output.
  struct State {
    std::array<uint64_t, 4 * kLanes> words{};
    uint32_t phase = 0;
  };

  /// Seeds all four lanes from `seed` per the stream definition above.
  explicit BlockRng(uint64_t seed);

  /// Restores a snapshot (every lane must have a nonzero state; checked).
  explicit BlockRng(const State& state);

  /// Next output of the interleaved stream.
  uint64_t Next();

  /// Fills `out` with the next out.size() Next() outputs, through
  /// vec::FillStream: from a lane-aligned position on, whole lockstep steps
  /// run at the active vecmath dispatch level; the words before it and
  /// after the last whole step run scalar. The sequence is identical to
  /// calling Next() out.size() times at every dispatch level.
  void Fill(std::span<uint64_t> out);

  /// Moves the stream `words` outputs ahead: afterwards the generator is
  /// exactly where `words` Next() calls would have left it. Each lane's
  /// xoshiro256 state transition T is linear over GF(2), so k steps are
  /// T^k = r(T) with r(x) = x^k mod p(x), p the transition's degree-256
  /// characteristic polynomial (found once per process by
  /// Berlekamp–Massey). A long jump costs a few 256-bit polynomial
  /// products plus 256 lockstep steps, whatever the distance; this is how
  /// the batch engine's workers start a group of chunks at its exact ν
  /// stream position without generating the words before it.
  void Advance(uint64_t words);

  /// Snapshot for serialization and tests. Together with Restore() this is
  /// the checkpoint seam the lane-resident megakernels (vecmath's Mega*
  /// family) use: a kernel loads the State's lanes into registers,
  /// advances them in-kernel, and hands back a State that Restore()
  /// accepts — leaving this generator exactly where a FillUint64 of the
  /// consumed words would have.
  State state() const { return state_; }

  /// Restores a snapshot in place (same validation as the State
  /// constructor: phase < kLanes, every lane nonzero; checked).
  void Restore(const State& state);

 private:
  /// Advances every lane by `steps` state transitions.
  void StepAllLanes(uint64_t steps);

  // The State's flat layout puts state word w of all four lanes side by
  // side, so the SIMD lanes load each word of every lane with one 256-bit
  // load.
  State state_;
};

/// Interleaved four-lane xoshiro256++ generator (see BlockRng) with the
/// convenience draws used by the samplers.
///
/// Not thread-safe; use one Rng per thread (Fork() produces independent
/// streams for parallel experiment runs).
class Rng {
 public:
  /// Full state snapshot type (BlockRng::State).
  using State = BlockRng::State;

  /// Seeds the generator; equal seeds produce equal streams.
  explicit Rng(uint64_t seed = 0xdeadbeefcafef00dULL);

  /// Constructs directly from a state snapshot (round-trips state()).
  explicit Rng(const State& state);

  /// Next raw 64-bit output.
  uint64_t NextUint64();

  /// Uniform integer in [0, bound) without modulo bias. bound must be > 0
  /// (checked: bound == 0 would divide by zero in the rejection threshold).
  uint64_t NextBounded(uint64_t bound);

  /// The uint64 -> double mappings behind NextDouble/NextDoublePositive,
  /// exposed so every bulk transform (the samplers' *Block paths,
  /// the batch engine's bound computation) shares the one definition — the
  /// bitwise batch/streaming equivalence contract depends on these never
  /// diverging between call sites.
  ///
  /// [0, 1): top 53 bits scaled onto the 53-bit lattice.
  static double ToUnitDouble(uint64_t word) {
    return static_cast<double>(word >> 11) * 0x1.0p-53;
  }
  /// (0, 1]: the [0,1) lattice shifted up by one ulp of the 53-bit grid
  /// (never 0, safe for log()).
  static double ToUnitDoublePositive(uint64_t word) {
    return (static_cast<double>(word >> 11) + 1.0) * 0x1.0p-53;
  }

  /// Uniform double in [0, 1) with 53 bits of precision.
  double NextDouble();

  /// Uniform double in (0, 1]; never returns 0 (safe for log()).
  double NextDoublePositive();

  /// Fills `out` with the next out.size() NextUint64() outputs, running
  /// the four xoshiro lanes in SIMD lockstep where the span is
  /// lane-aligned (BlockRng::Fill). The sequence is identical to calling
  /// NextUint64() out.size() times, at every dispatch level. Bulk doubles
  /// are these words through ToUnitDouble or ToUnitDoublePositive.
  void FillUint64(std::span<uint64_t> out);

  /// Uniform double in [lo, hi).
  double NextUniform(double lo, double hi);

  /// Bernoulli draw with success probability p in [0, 1].
  bool NextBernoulli(double p);

  /// Returns a new Rng seeded (via the BlockRng seeding expansion) from
  /// one draw of this stream — JAX-style key splitting. Safe for
  /// arbitrarily *nested* forking (per-run, then per-method, then
  /// per-worker): every stream in the fork tree is well separated with
  /// overwhelming probability. Deterministic: same parent state, same
  /// children. Advances this generator by exactly one draw.
  Rng Fork();

  /// Fisher-Yates shuffles indices [0, n) into `out` (resized to n).
  /// Convenience for randomized query orders in the experiments.
  template <typename Container>
  void ShuffleIndices(size_t n, Container* out) {
    out->resize(n);
    for (size_t i = 0; i < n; ++i) (*out)[i] = static_cast<uint32_t>(i);
    for (size_t i = n; i > 1; --i) {
      size_t j = static_cast<size_t>(NextBounded(i));
      std::swap((*out)[i - 1], (*out)[j]);
    }
  }

  /// In-place Fisher-Yates shuffle of an arbitrary random-access container.
  template <typename Container>
  void Shuffle(Container* c) {
    for (size_t i = c->size(); i > 1; --i) {
      size_t j = static_cast<size_t>(NextBounded(i));
      std::swap((*c)[i - 1], (*c)[j]);
    }
  }

  /// Internal state snapshot (for tests and serialization).
  State state() const { return core_.state(); }

  /// Restores a snapshot in place (BlockRng::Restore) — the return half of
  /// the megakernel checkpoint seam: the batch engine snapshots state(),
  /// lets an in-register kernel consume stream words, and restores the
  /// kernel's final state here so subsequent draws continue the one
  /// stream exactly.
  void RestoreState(const State& state) { core_.Restore(state); }

 private:
  BlockRng core_;
};

}  // namespace svt

#endif  // SPARSEVEC_COMMON_RNG_H_
