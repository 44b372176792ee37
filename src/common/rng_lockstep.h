// Shared four-lane lockstep xoshiro256++ step primitives.
//
// BlockRng (common/rng.{h,cc}) owns the stream definition: the output
// stream is the round-robin interleave of four xoshiro256++ lanes, and a
// lane-aligned position advances by whole lockstep steps of all four
// lanes. The lane-resident megakernels in common/vecmath.cc must advance
// the exact same stream from inside their loops — words never touch
// memory there — so both sides share these per-ISA step primitives. One
// step advances all four lanes and yields their four outputs: the next
// four words of the interleaved stream at a lane-aligned position.
//
// Everything here is pure integer arithmetic, so the scalar walker and
// the SIMD steps are bit-identical by construction; the variants differ
// only in how many lanes one instruction advances (and the AVX-512VL one
// in using the native 64-bit rotate). State is passed as the SoA block
// BlockRng keeps: s[w * 4 + lane] is state word w of lane `lane`, so one
// 256-bit load covers one word of all four lanes. BlockRng::State::words
// uses the identical flat layout, which is what makes the checkpoint /
// restore seam between the engine and the megakernels a plain copy.

#ifndef SPARSEVEC_COMMON_RNG_LOCKSTEP_H_
#define SPARSEVEC_COMMON_RNG_LOCKSTEP_H_

#include <cstddef>
#include <cstdint>

#if (defined(__x86_64__) || defined(_M_X64)) && !defined(SVT_DISABLE_AVX2) && \
    (defined(__GNUC__) || defined(__clang__))
#define SVT_LOCKSTEP_HAVE_AVX2 1
#include <immintrin.h>
#else
#define SVT_LOCKSTEP_HAVE_AVX2 0
#endif

// The AVX-512 variant rides on the same toolchain requirements as AVX2;
// -DSVT_DISABLE_AVX512 compiles just it out (matching vecmath's lanes).
#if SVT_LOCKSTEP_HAVE_AVX2 && !defined(SVT_DISABLE_AVX512)
#define SVT_LOCKSTEP_HAVE_AVX512 1
#else
#define SVT_LOCKSTEP_HAVE_AVX512 0
#endif

namespace svt {
namespace lockstep {

inline uint64_t Rotl(uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

/// One xoshiro256++ output-and-advance of lane `lane` of an SoA state
/// block — the scalar stream walker behind BlockRng::Next(), the fill
/// kernels' phase catch-up, and the megakernels' tails and unaligned
/// entries.
inline uint64_t StepLaneSoA(uint64_t* s, size_t lane) {
  uint64_t s0 = s[lane];
  uint64_t s1 = s[4 + lane];
  uint64_t s2 = s[8 + lane];
  uint64_t s3 = s[12 + lane];
  const uint64_t result = Rotl(s0 + s3, 23) + s0;
  const uint64_t t = s1 << 17;
  s2 ^= s0;
  s3 ^= s1;
  s1 ^= s2;
  s0 ^= s3;
  s2 ^= t;
  s3 = Rotl(s3, 45);
  s[lane] = s0;
  s[4 + lane] = s1;
  s[8 + lane] = s2;
  s[12 + lane] = s3;
  return result;
}

#if SVT_LOCKSTEP_HAVE_AVX2

__attribute__((target("avx2"))) inline __m256i Rotl4Avx2(__m256i x, int k) {
  return _mm256_or_si256(_mm256_slli_epi64(x, k),
                         _mm256_srli_epi64(x, 64 - k));
}

/// One lockstep step of all four lanes held in registers: returns their
/// four outputs (stream words, lane order) and advances the state.
__attribute__((target("avx2"))) inline __m256i Step4Avx2(__m256i& s0,
                                                         __m256i& s1,
                                                         __m256i& s2,
                                                         __m256i& s3) {
  const __m256i result =
      _mm256_add_epi64(Rotl4Avx2(_mm256_add_epi64(s0, s3), 23), s0);
  const __m256i t = _mm256_slli_epi64(s1, 17);
  s2 = _mm256_xor_si256(s2, s0);
  s3 = _mm256_xor_si256(s3, s1);
  s1 = _mm256_xor_si256(s1, s2);
  s0 = _mm256_xor_si256(s0, s3);
  s2 = _mm256_xor_si256(s2, t);
  s3 = Rotl4Avx2(s3, 45);
  return result;
}

#endif  // SVT_LOCKSTEP_HAVE_AVX2

#if SVT_LOCKSTEP_HAVE_AVX512

/// AVX-512VL variant of Step4Avx2: the two rotates use the native 64-bit
/// rotate instruction (vprolq) instead of shift+shift+or — the rotation
/// is exact either way, so outputs are bit-identical.
__attribute__((target("avx512f,avx512vl"))) inline __m256i Step4Avx512(
    __m256i& s0, __m256i& s1, __m256i& s2, __m256i& s3) {
  const __m256i result =
      _mm256_add_epi64(_mm256_rol_epi64(_mm256_add_epi64(s0, s3), 23), s0);
  const __m256i t = _mm256_slli_epi64(s1, 17);
  s2 = _mm256_xor_si256(s2, s0);
  s3 = _mm256_xor_si256(s3, s1);
  s1 = _mm256_xor_si256(s1, s2);
  s0 = _mm256_xor_si256(s0, s3);
  s2 = _mm256_xor_si256(s2, t);
  s3 = _mm256_rol_epi64(s3, 45);
  return result;
}

#endif  // SVT_LOCKSTEP_HAVE_AVX512

}  // namespace lockstep
}  // namespace svt

#endif  // SPARSEVEC_COMMON_RNG_LOCKSTEP_H_
