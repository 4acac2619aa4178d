// Minimal fixed-width SIMD wrapper for the batch-front and lane-packed
// kernels.
//
// Targets the x86-64 SSE2 baseline (always present on x86-64); elsewhere
// every operation degrades to a 4-lane scalar loop, so code written
// against I32x4 stays portable. Only reassociation-free integer ops are
// wrapped — add / min / max / compare / blend — so each lane computes
// exactly what the scalar recurrence computes and results stay
// bit-identical to the per-cell path.
//
// An 8-lane AVX2 tier (I32x8) exists only in translation units compiled
// with AVX2 enabled (`__AVX2__`): the lane-kernel dispatcher
// (core/lane_kernels.cpp) builds its 8-wide kernel table in a dedicated
// -mavx2 TU and selects it at runtime behind a cpuid probe, so a baseline
// binary never executes a VEX-256 instruction on a machine without AVX2.
// Keeping the type out of non-AVX2 TUs (instead of a scalar stand-in)
// makes the ODR hazard of mixed-ISA template instantiation impossible by
// construction.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

#if defined(__SSE2__) || defined(_M_X64)
#include <emmintrin.h>
#define LDDP_SIMD_SSE2 1
#else
#define LDDP_SIMD_SSE2 0
#endif

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace lddp::simd {

/// Runtime probe for AVX2 support on the executing machine. Compile-time
/// AVX2 (`__AVX2__`, e.g. an LDDP_NATIVE build on an AVX2 host) makes the
/// answer static; otherwise the compiler's cpuid intrinsic is consulted
/// once. Non-x86 targets report false.
inline bool cpu_supports_avx2() {
#if defined(__AVX2__)
  return true;
#elif defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

#if LDDP_SIMD_SSE2

struct I32x4 {
  __m128i v;
  static constexpr std::size_t kLanes = 4;

  static I32x4 load(const std::int32_t* p) {
    return {_mm_loadu_si128(reinterpret_cast<const __m128i*>(p))};
  }
  /// `p` must be 16-byte aligned (lane-major tables and batch scratch are
  /// 64-byte aligned with vector-multiple strides, so every row offset
  /// qualifies).
  static I32x4 load_aligned(const std::int32_t* p) {
    return {_mm_load_si128(reinterpret_cast<const __m128i*>(p))};
  }
  static I32x4 broadcast(std::int32_t x) { return {_mm_set1_epi32(x)}; }
  void store(std::int32_t* p) const {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
  }
  void store_aligned(std::int32_t* p) const {
    _mm_store_si128(reinterpret_cast<__m128i*>(p), v);
  }
};

inline I32x4 add(I32x4 a, I32x4 b) { return {_mm_add_epi32(a.v, b.v)}; }
// SSE2 lacks pminsd/pmaxsd (SSE4.1); select on the signed compare instead.
inline I32x4 min(I32x4 a, I32x4 b) {
  const __m128i lt = _mm_cmplt_epi32(a.v, b.v);
  return {_mm_or_si128(_mm_and_si128(lt, a.v), _mm_andnot_si128(lt, b.v))};
}
inline I32x4 max(I32x4 a, I32x4 b) {
  const __m128i gt = _mm_cmpgt_epi32(a.v, b.v);
  return {_mm_or_si128(_mm_and_si128(gt, a.v), _mm_andnot_si128(gt, b.v))};
}
inline I32x4 cmpeq(I32x4 a, I32x4 b) { return {_mm_cmpeq_epi32(a.v, b.v)}; }
/// Per-lane select: mask lanes must be all-ones or all-zeros (a compare
/// result). Returns mask ? a : b.
inline I32x4 blend(I32x4 mask, I32x4 a, I32x4 b) {
  return {_mm_or_si128(_mm_and_si128(mask.v, a.v),
                       _mm_andnot_si128(mask.v, b.v))};
}

/// Lane mask of byte equality between two packed 4-char words: lane k is
/// all-ones iff byte k of `a4` equals byte k of `b4` (byte 0 = lane 0).
/// Used by the sequence kernels to vectorize a[i-1] == b[j-1].
inline I32x4 byte_eq_mask(std::uint32_t a4, std::uint32_t b4) {
  const __m128i a = _mm_cvtsi32_si128(static_cast<int>(a4));
  const __m128i b = _mm_cvtsi32_si128(static_cast<int>(b4));
  const __m128i eq = _mm_cmpeq_epi8(a, b);
  const __m128i lo = _mm_unpacklo_epi8(eq, eq);
  return {_mm_unpacklo_epi16(lo, lo)};
}

namespace detail {
/// shufps on integer lanes: result = {a[s0], a[s1], b[s2], b[s3]}. A pure
/// bit move — the float unit never interprets the lanes.
template <int s0, int s1, int s2, int s3>
inline __m128i shuffle2(__m128i a, __m128i b) {
  return _mm_castps_si128(_mm_shuffle_ps(_mm_castsi128_ps(a),
                                         _mm_castsi128_ps(b),
                                         _MM_SHUFFLE(s3, s2, s1, s0)));
}
}  // namespace detail

/// Loads 4 consecutive 3-field records (12 elements from `p`, e.g. an
/// array of {a, b, c} int32 structs) and splits them by field: lane k of
/// `a` is record k's first field, and so on. Three loads, six shuffles.
inline void load3_deinterleave(const std::int32_t* p, I32x4& a, I32x4& b,
                               I32x4& c) {
  // v0 = a0 b0 c0 a1 | v1 = b1 c1 a2 b2 | v2 = c2 a3 b3 c3
  const __m128i v0 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  const __m128i v1 =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 4));
  const __m128i v2 =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 8));
  const __m128i a23 = detail::shuffle2<2, 2, 1, 1>(v1, v2);  // a2 a2 a3 a3
  a.v = detail::shuffle2<0, 3, 0, 2>(v0, a23);
  const __m128i bc01 = detail::shuffle2<1, 2, 0, 1>(v0, v1);  // b0 c0 b1 c1
  const __m128i b23 = detail::shuffle2<3, 3, 2, 2>(v1, v2);   // b2 b2 b3 b3
  b.v = detail::shuffle2<0, 2, 0, 2>(bc01, b23);
  c.v = detail::shuffle2<1, 3, 0, 3>(bc01, v2);
}

/// Inverse of load3_deinterleave: writes records k = 0..3 as
/// {a[k], b[k], c[k]} to 12 consecutive elements at `p`.
inline void store3_interleave(std::int32_t* p, I32x4 a, I32x4 b, I32x4 c) {
  const __m128i ab01 = _mm_unpacklo_epi32(a.v, b.v);         // a0 b0 a1 b1
  const __m128i ca01 = detail::shuffle2<0, 0, 1, 1>(c.v, a.v);  // c0 c0 a1 a1
  const __m128i bc01 = _mm_unpacklo_epi32(b.v, c.v);         // b0 c0 b1 c1
  const __m128i ab23 = _mm_unpackhi_epi32(a.v, b.v);         // a2 b2 a3 b3
  const __m128i ca23 = detail::shuffle2<2, 2, 3, 3>(c.v, a.v);  // c2 c2 a3 a3
  const __m128i bc23 = _mm_unpackhi_epi32(b.v, c.v);         // b2 c2 b3 c3
  _mm_storeu_si128(reinterpret_cast<__m128i*>(p),
                   detail::shuffle2<0, 1, 0, 2>(ab01, ca01));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(p + 4),
                   detail::shuffle2<2, 3, 0, 1>(bc01, ab23));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(p + 8),
                   detail::shuffle2<0, 2, 2, 3>(ca23, bc23));
}

#else  // scalar fallback

struct I32x4 {
  std::int32_t v[4];
  static constexpr std::size_t kLanes = 4;

  static I32x4 load(const std::int32_t* p) {
    I32x4 r;
    std::memcpy(r.v, p, sizeof r.v);
    return r;
  }
  static I32x4 load_aligned(const std::int32_t* p) { return load(p); }
  static I32x4 broadcast(std::int32_t x) { return {{x, x, x, x}}; }
  void store(std::int32_t* p) const { std::memcpy(p, v, sizeof v); }
  void store_aligned(std::int32_t* p) const { store(p); }
};

inline I32x4 add(I32x4 a, I32x4 b) {
  I32x4 r;
  for (int k = 0; k < 4; ++k) r.v[k] = a.v[k] + b.v[k];
  return r;
}
inline I32x4 min(I32x4 a, I32x4 b) {
  I32x4 r;
  for (int k = 0; k < 4; ++k) r.v[k] = a.v[k] < b.v[k] ? a.v[k] : b.v[k];
  return r;
}
inline I32x4 max(I32x4 a, I32x4 b) {
  I32x4 r;
  for (int k = 0; k < 4; ++k) r.v[k] = a.v[k] > b.v[k] ? a.v[k] : b.v[k];
  return r;
}
inline I32x4 cmpeq(I32x4 a, I32x4 b) {
  I32x4 r;
  for (int k = 0; k < 4; ++k) r.v[k] = a.v[k] == b.v[k] ? -1 : 0;
  return r;
}
inline I32x4 blend(I32x4 mask, I32x4 a, I32x4 b) {
  I32x4 r;
  for (int k = 0; k < 4; ++k) r.v[k] = mask.v[k] ? a.v[k] : b.v[k];
  return r;
}
inline I32x4 byte_eq_mask(std::uint32_t a4, std::uint32_t b4) {
  I32x4 r;
  for (int k = 0; k < 4; ++k) {
    const std::uint32_t ac = (a4 >> (8 * k)) & 0xffu;
    const std::uint32_t bc = (b4 >> (8 * k)) & 0xffu;
    r.v[k] = ac == bc ? -1 : 0;
  }
  return r;
}
inline void load3_deinterleave(const std::int32_t* p, I32x4& a, I32x4& b,
                               I32x4& c) {
  for (int k = 0; k < 4; ++k) {
    std::memcpy(&a.v[k], p + 3 * k, 4);
    std::memcpy(&b.v[k], p + 3 * k + 1, 4);
    std::memcpy(&c.v[k], p + 3 * k + 2, 4);
  }
}
inline void store3_interleave(std::int32_t* p, I32x4 a, I32x4 b, I32x4 c) {
  for (int k = 0; k < 4; ++k) {
    std::memcpy(p + 3 * k, &a.v[k], 4);
    std::memcpy(p + 3 * k + 1, &b.v[k], 4);
    std::memcpy(p + 3 * k + 2, &c.v[k], 4);
  }
}

#endif  // LDDP_SIMD_SSE2

#if defined(__AVX2__)

/// 8-lane AVX2 tier. Deliberately defined ONLY under `__AVX2__` — see the
/// file comment. Semantics mirror I32x4 exactly; all ops are exact signed
/// int32, so lane results stay bit-identical to the scalar recurrence.
struct I32x8 {
  __m256i v;
  static constexpr std::size_t kLanes = 8;

  static I32x8 load(const std::int32_t* p) {
    return {_mm256_loadu_si256(reinterpret_cast<const __m256i*>(p))};
  }
  /// `p` must be 32-byte aligned.
  static I32x8 load_aligned(const std::int32_t* p) {
    return {_mm256_load_si256(reinterpret_cast<const __m256i*>(p))};
  }
  static I32x8 broadcast(std::int32_t x) { return {_mm256_set1_epi32(x)}; }
  void store(std::int32_t* p) const {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
  }
  void store_aligned(std::int32_t* p) const {
    _mm256_store_si256(reinterpret_cast<__m256i*>(p), v);
  }
};

inline I32x8 add(I32x8 a, I32x8 b) { return {_mm256_add_epi32(a.v, b.v)}; }
inline I32x8 min(I32x8 a, I32x8 b) { return {_mm256_min_epi32(a.v, b.v)}; }
inline I32x8 max(I32x8 a, I32x8 b) { return {_mm256_max_epi32(a.v, b.v)}; }
inline I32x8 cmpeq(I32x8 a, I32x8 b) {
  return {_mm256_cmpeq_epi32(a.v, b.v)};
}
/// Per-lane select: mask lanes must be all-ones or all-zeros. mask ? a : b.
inline I32x8 blend(I32x8 mask, I32x8 a, I32x8 b) {
  return {_mm256_blendv_epi8(b.v, a.v, mask.v)};
}

#endif  // __AVX2__

/// Packs 4 consecutive chars ascending from `p` (byte 0 = p[0]).
inline std::uint32_t load4(const char* p) {
  std::uint32_t x;
  std::memcpy(&x, p, 4);
  return x;
}

/// Packs 4 chars at descending addresses from `p` (byte 0 = p[0], byte 1 =
/// p[-1], ...) — the access pattern of the second sequence along an
/// anti-diagonal.
inline std::uint32_t load4_reversed(const char* p) {
  std::uint32_t x;
  std::memcpy(&x, p - 3, 4);
  return (x >> 24) | ((x >> 8) & 0x0000ff00u) | ((x << 8) & 0x00ff0000u) |
         (x << 24);
}

/// Copies a 4 x 4 block of 4-byte elements transposed: element r of
/// out[c] receives element c of in[r]. Each pointer addresses 4
/// consecutive elements, with no alignment requirement. A pure bit copy.
inline void transpose4x4_copy32(const void* const in[4], void* const out[4]) {
#if LDDP_SIMD_SSE2
  auto ld = [](const void* p) {
    return _mm_loadu_si128(static_cast<const __m128i*>(p));
  };
  const __m128i v0 = ld(in[0]), v1 = ld(in[1]), v2 = ld(in[2]),
                v3 = ld(in[3]);
  const __m128i t0 = _mm_unpacklo_epi32(v0, v1);
  const __m128i t1 = _mm_unpacklo_epi32(v2, v3);
  const __m128i t2 = _mm_unpackhi_epi32(v0, v1);
  const __m128i t3 = _mm_unpackhi_epi32(v2, v3);
  _mm_storeu_si128(static_cast<__m128i*>(out[0]), _mm_unpacklo_epi64(t0, t1));
  _mm_storeu_si128(static_cast<__m128i*>(out[1]), _mm_unpackhi_epi64(t0, t1));
  _mm_storeu_si128(static_cast<__m128i*>(out[2]), _mm_unpacklo_epi64(t2, t3));
  _mm_storeu_si128(static_cast<__m128i*>(out[3]), _mm_unpackhi_epi64(t2, t3));
#else
  std::uint32_t b[4][4];
  for (int r = 0; r < 4; ++r) std::memcpy(b[r], in[r], 16);
  for (int c = 0; c < 4; ++c)
    for (int r = 0; r < 4; ++r)
      std::memcpy(static_cast<char*>(out[c]) + 4 * r, &b[r][c], 4);
#endif
}

}  // namespace lddp::simd
