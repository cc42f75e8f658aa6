// SSE2 kernel variants -- the x86-64 baseline level (every x86-64 CPU has
// SSE2, so this is the floor the dispatcher can always select on x86).
//
// Bit-identical contract: the double-precision kernels run each pixel
// through the exact scalar operation sequence, two pixels per vector; the
// integer kernels are exact.  Clipped counting compares bytes against a
// threshold derived from the scalar predicate (detail::clipThreshold), so
// it reproduces the per-pixel double comparison on every input.  The DCT
// pair runs two output coefficients per vector in the scalar order, and the
// inverse skips zero rows as the scalar reference does.  The colour pair
// converts two pixels per vector.
//
// This TU is compiled WITHOUT extra ISA flags: SSE2 is part of the x86-64
// ABI, so the intrinsics below are always available here.
#if defined(__x86_64__) || defined(_M_X64)

#include <emmintrin.h>

#include "media/kernels/kernels.h"
#include "media/kernels/kernels_internal.h"

namespace anno::media::kernels {
namespace {

// Baseline SSE2 has no byte shuffle (SSSE3) or widening loads (SSE4.1), so
// the RGB deinterleave costs more scalar construction than the two-wide
// double math saves: the measured 2-lane variants ran ~0.85x of scalar.
// The profile and plane kernels therefore use the scalar reference here;
// SSE2 still wins on the byte-oriented kernels below.
void profileRgbSse2(const Rgb8* px, std::size_t n, FrameProfile& out) {
  out = FrameProfile{};
  int minAcc = 255;
  int maxAcc = 0;
  detail::profileRgbRange(px, n, out, minAcc, maxAcc);
  detail::finishProfile(out, n, minAcc, maxAcc);
}

void profileGraySse2(const std::uint8_t* px, std::size_t n,
                     FrameProfile& out) {
  out = FrameProfile{};
  int minAcc = 255;
  int maxAcc = 0;
  std::uint32_t h[4][256] = {};
  __m128i sumAcc = _mm_setzero_si128();
  __m128i minAccV = _mm_set1_epi8(static_cast<char>(0xFF));
  __m128i maxAccV = _mm_setzero_si128();
  std::size_t i = 0;
  alignas(16) std::uint8_t buf[16];
  for (; i + 16 <= n; i += 16) {
    const __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(px + i));
    sumAcc = _mm_add_epi64(sumAcc, _mm_sad_epu8(v, _mm_setzero_si128()));
    minAccV = _mm_min_epu8(minAccV, v);
    maxAccV = _mm_max_epu8(maxAccV, v);
    _mm_store_si128(reinterpret_cast<__m128i*>(buf), v);
    for (int j = 0; j < 16; ++j) ++h[j & 3][buf[j]];
  }
  if (i != 0) {
    out.lumaSum = static_cast<std::uint64_t>(_mm_cvtsi128_si64(sumAcc)) +
                  static_cast<std::uint64_t>(
                      _mm_cvtsi128_si64(_mm_unpackhi_epi64(sumAcc, sumAcc)));
    _mm_store_si128(reinterpret_cast<__m128i*>(buf), minAccV);
    for (int j = 0; j < 16; ++j) minAcc = std::min<int>(minAcc, buf[j]);
    _mm_store_si128(reinterpret_cast<__m128i*>(buf), maxAccV);
    for (int j = 0; j < 16; ++j) maxAcc = std::max<int>(maxAcc, buf[j]);
    for (int v = 0; v < 256; ++v) {
      out.hist[v] = static_cast<std::uint64_t>(h[0][v]) + h[1][v] + h[2][v] +
                    h[3][v];
    }
  }
  detail::profileGrayRange(px + i, n - i, out, minAcc, maxAcc);
  detail::finishProfile(out, n, minAcc, maxAcc);
}

void maxChannelHistogramSse2(const Rgb8* px, std::size_t n,
                             std::uint64_t* hist) {
  // One 16-byte load covers 5 packed RGB pixels (15 bytes).  Byte-shifting
  // the vector right by 1 and 2 and taking the unsigned max makes byte j
  // hold max(bytes j, j+1, j+2) -- at j = 0,3,6,9,12 exactly max(r,g,b) of
  // a pixel.  The scatter runs on four banked uint32 histograms (the same
  // dependency-breaking shape as profileGray) and ADDS into the caller's
  // histogram at the end: the scalar kernel accumulates, so must we.
  std::uint32_t h[4][256] = {};
  const std::uint8_t* bytes = reinterpret_cast<const std::uint8_t*>(px);
  std::size_t i = 0;
  alignas(16) std::uint8_t buf[16];
  // The load reads bytes [3i, 3i+16); 3i+16 <= 3(i+6) keeps it in bounds.
  for (; i + 6 <= n; i += 5) {
    const __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(bytes + 3 * i));
    const __m128i m = _mm_max_epu8(
        _mm_max_epu8(v, _mm_srli_si128(v, 1)), _mm_srli_si128(v, 2));
    _mm_store_si128(reinterpret_cast<__m128i*>(buf), m);
    ++h[0][buf[0]];
    ++h[1][buf[3]];
    ++h[2][buf[6]];
    ++h[3][buf[9]];
    ++h[0][buf[12]];
  }
  if (i != 0) {
    for (int v = 0; v < 256; ++v) {
      hist[v] += static_cast<std::uint64_t>(h[0][v]) + h[1][v] + h[2][v] +
                 h[3][v];
    }
  }
  detail::maxChannelRange(px + i, n - i, hist);
}

void lumaPlaneSse2(const Rgb8* px, std::size_t n, std::uint8_t* out) {
  detail::lumaPlaneRange(px, n, out);  // see the profileRgbSse2 note
}

void histAccumulateSse2(std::uint64_t* dst, const std::uint64_t* src) {
  for (int v = 0; v < 256; v += 2) {
    const __m128i d =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(dst + v));
    const __m128i s =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + v));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + v),
                     _mm_add_epi64(d, s));
  }
}

Uint128 emdNumeratorSse2(const std::uint64_t* a, std::uint64_t totalA,
                         const std::uint64_t* b, std::uint64_t totalB) {
  if (totalA > detail::kEmdFastMaxTotal || totalB > detail::kEmdFastMaxTotal) {
    return detail::emdNumeratorExact(a, totalA, b, totalB);
  }
  if (totalA == totalB) {
    // Equal totals factor the numerator as t * sum|cdfA - cdfB| -- one
    // multiply total instead of two per bin (still exact integers).
    std::int64_t cdfDiff = 0;
    std::uint64_t sumAbs = 0;
    for (int v = 0; v < 256; ++v) {
      cdfDiff += static_cast<std::int64_t>(a[v]) -
                 static_cast<std::int64_t>(b[v]);
      sumAbs += static_cast<std::uint64_t>(cdfDiff < 0 ? -cdfDiff : cdfDiff);
    }
    return static_cast<Uint128>(totalA * sumAbs);
  }
  // 64-bit fast path: with totals <= 2^27 every product fits well inside
  // a signed 64-bit value (exact, so identical to the 128-bit reference).
  std::uint64_t cdfA = 0;
  std::uint64_t cdfB = 0;
  std::uint64_t acc = 0;
  for (int v = 0; v < 256; ++v) {
    cdfA += a[v];
    cdfB += b[v];
    const std::int64_t d = static_cast<std::int64_t>(cdfA * totalB) -
                           static_cast<std::int64_t>(cdfB * totalA);
    acc += static_cast<std::uint64_t>(d < 0 ? -d : d);
  }
  return acc;
}

void scalePixelsSse2(const Rgb8* src, std::size_t n, double k, Rgb8* dst) {
  if (k < 0.0) {
    detail::scaleRange(src, n, k, dst);
    return;
  }
  const __m128d kv = _mm_set1_pd(k);
  const __m128d half = _mm_set1_pd(0.5);
  const __m128d lim = _mm_set1_pd(255.0);
  const std::uint8_t* in = reinterpret_cast<const std::uint8_t*>(src);
  std::uint8_t* outp = reinterpret_cast<std::uint8_t*>(dst);
  const std::size_t channels = n * 3;
  std::size_t c = 0;
  for (; c + 2 <= channels; c += 2) {
    // clamp8(v*k): v*k >= 0 here, so only the >= 255 clamp can fire and
    // truncating v*k + 0.5 reproduces the scalar rounding exactly.
    const __m128d y = _mm_mul_pd(_mm_set_pd(in[c + 1], in[c]), kv);
    __m128d t = _mm_add_pd(y, half);
    const __m128d ge = _mm_cmpge_pd(y, lim);
    t = _mm_or_pd(_mm_and_pd(ge, lim), _mm_andnot_pd(ge, t));
    const __m128i yi = _mm_cvttpd_epi32(t);
    outp[c] = static_cast<std::uint8_t>(_mm_cvtsi128_si32(yi));
    outp[c + 1] = static_cast<std::uint8_t>(
        _mm_cvtsi128_si32(_mm_shuffle_epi32(yi, 1)));
  }
  if (c < channels) {
    // Odd channel count only when n is odd; finish the final pixel.
    dst[n - 1] = scale(src[n - 1], k);
  }
}

std::size_t countClippedSse2(const Rgb8* px, std::size_t n, double k) {
  if (k < 0.0) return detail::countClippedRange(px, n, k);
  const int threshold = detail::clipThreshold(k);
  if (threshold > 255) return 0;  // not even code 255 clips
  // A pixel clips iff max(r,g,b) >= threshold; byte-compare all three
  // channel bytes and OR the three per-pixel bits of the movemask.
  const __m128i tv = _mm_set1_epi8(static_cast<char>(threshold));
  const std::uint8_t* bytes = reinterpret_cast<const std::uint8_t*>(px);
  std::size_t clipped = 0;
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const std::uint8_t* blk = bytes + 3 * i;
    std::uint64_t mask = 0;
    for (int part = 0; part < 3; ++part) {
      const __m128i v = _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(blk + 16 * part));
      // Unsigned v >= threshold  <=>  max(v, threshold) == v.
      const __m128i ge = _mm_cmpeq_epi8(_mm_max_epu8(v, tv), v);
      mask |= static_cast<std::uint64_t>(
                  static_cast<std::uint32_t>(_mm_movemask_epi8(ge)))
              << (16 * part);
    }
    const std::uint64_t pixelBits =
        (mask | (mask >> 1) | (mask >> 2)) & 0x249249249249ull;
    clipped += static_cast<std::size_t>(__builtin_popcountll(pixelBits));
  }
  return clipped + detail::countClippedRange(px + i, n - i, k);
}

int tailBudgetLevelSse2(const std::uint64_t* counts, std::uint64_t budget) {
  return detail::tailBudgetLevelRange(counts, budget);
}

int lowPointSse2(const std::uint64_t* counts, std::uint64_t budget) {
  return detail::lowPointRange(counts, budget);
}

int highPointSse2(const std::uint64_t* counts, std::uint64_t budget) {
  return detail::highPointRange(counts, budget);
}

/// Row `aRow` of an 8x8 product a x b, two output columns per vector: each
/// output accumulates aRow[i] * b[i][col] from 0.0 over ascending i, the
/// scalar DCT loop's order.  `b` must be 16-byte aligned (the cosine
/// tables and the transforms' scratch are).
inline void matmulRow(const double* aRow, const double* b, double* outRow) {
  __m128d acc0 = _mm_setzero_pd();
  __m128d acc1 = _mm_setzero_pd();
  __m128d acc2 = _mm_setzero_pd();
  __m128d acc3 = _mm_setzero_pd();
#pragma GCC unroll 8
  for (int i = 0; i < 8; ++i) {
    const __m128d s = _mm_set1_pd(aRow[i]);
    const double* row = b + i * 8;
    acc0 = _mm_add_pd(acc0, _mm_mul_pd(s, _mm_load_pd(row)));
    acc1 = _mm_add_pd(acc1, _mm_mul_pd(s, _mm_load_pd(row + 2)));
    acc2 = _mm_add_pd(acc2, _mm_mul_pd(s, _mm_load_pd(row + 4)));
    acc3 = _mm_add_pd(acc3, _mm_mul_pd(s, _mm_load_pd(row + 6)));
  }
  _mm_storeu_pd(outRow, acc0);
  _mm_storeu_pd(outRow + 2, acc1);
  _mm_storeu_pd(outRow + 4, acc2);
  _mm_storeu_pd(outRow + 6, acc3);
}

/// The 32 vectors of an 8x8 matrix do not fit in 16 XMM registers.  Fully
/// unrolled (-O3), GCC would load them once for all eight rows of a
/// product and spill most of them; passing the pointer through this
/// barrier once per row hides that the rows read the same memory, so the
/// vectors stay loads.
inline const double* perRow(const double* p) {
  __asm__("" : "+r"(p));
  return p;
}

/// out = a x b for row-major 8x8 matrices.  `out` must not alias `a` or
/// `b`; `b` is 16-byte aligned.
inline void matmul8x8(const double* a, const double* b, double* out) {
  for (int r = 0; r < 8; ++r) matmulRow(a + r * 8, perRow(b), out + r * 8);
}

/// True if `row` (8 doubles) holds a value other than +-0.0 (NaN
/// compares unequal, so it counts as live).
inline bool rowLive(const double* row) {
  const __m128d zero = _mm_setzero_pd();
  const __m128d nz =
      _mm_or_pd(_mm_or_pd(_mm_cmpneq_pd(_mm_loadu_pd(row), zero),
                          _mm_cmpneq_pd(_mm_loadu_pd(row + 2), zero)),
                _mm_or_pd(_mm_cmpneq_pd(_mm_loadu_pd(row + 4), zero),
                          _mm_cmpneq_pd(_mm_loadu_pd(row + 6), zero)));
  return _mm_movemask_pd(nz) != 0;
}

// Forward: tmp = in x C^T (rows), out = C x tmp (columns).  Same products,
// same order as scalar.
void forwardDct8x8Sse2(const double* in, double* out) {
  const detail::DctTables& t = detail::dctTables();
  alignas(16) double tmp[64];
  matmul8x8(in, &t.ct[0][0], tmp);
  matmul8x8(&t.c[0][0], tmp, out);
}

/// Pass 1 of the inverse for one input row: tmpRow[x] = sum_k inRow[k] *
/// c[k][x] from 0.0 in ascending k.  Row 0 of c is one constant, so the
/// k = 0 partial sum is a single double for every x.
inline void inverseRow(const double* inRow, const detail::DctTables& t,
                       double* tmpRow) {
  const double* c = perRow(&t.c[0][0]);
  const __m128d first = _mm_set1_pd(0.0 + inRow[0] * t.c[0][0]);
  __m128d acc0 = first;
  __m128d acc1 = first;
  __m128d acc2 = first;
  __m128d acc3 = first;
#pragma GCC unroll 7
  for (int k = 1; k < 8; ++k) {
    const __m128d s = _mm_set1_pd(inRow[k]);
    const double* row = c + k * 8;
    acc0 = _mm_add_pd(acc0, _mm_mul_pd(s, _mm_load_pd(row)));
    acc1 = _mm_add_pd(acc1, _mm_mul_pd(s, _mm_load_pd(row + 2)));
    acc2 = _mm_add_pd(acc2, _mm_mul_pd(s, _mm_load_pd(row + 4)));
    acc3 = _mm_add_pd(acc3, _mm_mul_pd(s, _mm_load_pd(row + 6)));
  }
  _mm_store_pd(tmpRow, acc0);
  _mm_store_pd(tmpRow + 2, acc1);
  _mm_store_pd(tmpRow + 4, acc2);
  _mm_store_pd(tmpRow + 6, acc3);
}

/// Pass 2 of the inverse: out row y = sum over the rows j of tmp listed in
/// `live` (ascending) of c[j][y] * tmp row j, each output from 0.0.
/// Column 0 of C^T is one constant, so when row 0 is live the j = 0
/// partial sum 0.0 + tmp[0][x] * c[0][y] is the same for every y.
inline void inverseColumns(const double* tmp, const int* live, int count,
                           const detail::DctTables& t, double* out) {
  __m128d base[4];
  for (__m128d& v : base) v = _mm_setzero_pd();
  int first = 0;
  if (count > 0 && live[0] == 0) {
    const __m128d c0 = _mm_set1_pd(t.c[0][0]);
    for (int v = 0; v < 4; ++v) {
      base[v] = _mm_add_pd(base[v], _mm_mul_pd(_mm_load_pd(tmp + 2 * v), c0));
    }
    first = 1;
  }
  for (int y = 0; y < 8; ++y) {
    __m128d acc0 = base[0];
    __m128d acc1 = base[1];
    __m128d acc2 = base[2];
    __m128d acc3 = base[3];
    for (int n = first; n < count; ++n) {
      const __m128d s = _mm_set1_pd(t.ct[y][live[n]]);
      const double* row = tmp + live[n] * 8;
      acc0 = _mm_add_pd(acc0, _mm_mul_pd(s, _mm_load_pd(row)));
      acc1 = _mm_add_pd(acc1, _mm_mul_pd(s, _mm_load_pd(row + 2)));
      acc2 = _mm_add_pd(acc2, _mm_mul_pd(s, _mm_load_pd(row + 4)));
      acc3 = _mm_add_pd(acc3, _mm_mul_pd(s, _mm_load_pd(row + 6)));
    }
    _mm_storeu_pd(out + y * 8, acc0);
    _mm_storeu_pd(out + y * 8 + 2, acc1);
    _mm_storeu_pd(out + y * 8 + 4, acc2);
    _mm_storeu_pd(out + y * 8 + 6, acc3);
  }
}

/// The inverse of a block whose last row is +-0.0: rows 0-6 that are
/// +-0.0 too drop out of both passes (kernels.h).
[[gnu::noinline]] void inverseDct8x8Sparse(const double* in, double* out) {
  const detail::DctTables& t = detail::dctTables();
  alignas(16) double tmp[64];
  int live[7];
  int count = 0;
  for (int j = 0; j < 7; ++j) {
    if (!rowLive(in + j * 8)) continue;
    inverseRow(in + j * 8, t, tmp + j * 8);
    live[count++] = j;
  }
  inverseColumns(tmp, live, count, t, out);
}

// Inverse: tmp = in x C (rows), out = C^T x tmp (columns).  Every output
// starts from 0.0 and adds its products in ascending order, as the scalar
// loops do.
void inverseDct8x8Sse2(const double* in, double* out) {
  if (!rowLive(in + 56)) {
    inverseDct8x8Sparse(in, out);
    return;
  }
  // A live last row marks a dense block: one test, then the plain passes
  // (any zero rows among the others cost their products, not their bits).
  const detail::DctTables& t = detail::dctTables();
  alignas(16) double tmp[64];
  matmul8x8(in, &t.c[0][0], tmp);
  matmul8x8(&t.ct[0][0], tmp, out);
}

/// clamp8 of two lanes, as int32: trunc(min(max(v + 0.5, 0), 255)).  For
/// v <= 0 the sum is at most 0.5 and truncates to 0; for v >= 255 it is at
/// least 255.5 and clamps to 255; in between it stays below 255.5, so the
/// min cannot change its truncation.  Every lane equals clamp8(v).
inline __m128i clamp8x2(__m128d v) {
  const __m128d t = _mm_min_pd(
      _mm_max_pd(_mm_add_pd(v, _mm_set1_pd(0.5)), _mm_setzero_pd()),
      _mm_set1_pd(255.0));
  return _mm_cvttpd_epi32(t);
}

void rgbToPlanesSse2(const Rgb8* px, std::size_t n, double* y, double* cb,
                     double* cr) {
  const std::uint8_t* bytes = reinterpret_cast<const std::uint8_t*>(px);
  const __m128i zero = _mm_setzero_si128();
  std::size_t i = 0;
  // Two pixels per step from an 8-byte load of bytes [3i, 3i+8), in
  // bounds while i + 3 <= n.
  for (; i + 3 <= n; i += 2) {
    const __m128i w = _mm_unpacklo_epi8(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(bytes + 3 * i)),
        zero);
    const __m128i q0 = _mm_unpacklo_epi16(w, zero);  // r0 g0 b0 r1
    const __m128i q1 = _mm_unpackhi_epi16(w, zero);  // g1 b1 .. ..
    const __m128i gb = _mm_unpacklo_epi32(_mm_srli_si128(q0, 4), q1);
    const __m128d r =
        _mm_cvtepi32_pd(_mm_shuffle_epi32(q0, _MM_SHUFFLE(3, 3, 3, 0)));
    const __m128d g = _mm_cvtepi32_pd(gb);                       // g0 g1
    const __m128d b = _mm_cvtepi32_pd(_mm_unpackhi_epi64(gb, gb));  // b0 b1
    const __m128d yv = _mm_add_pd(
        _mm_add_pd(_mm_mul_pd(_mm_set1_pd(kLumaR), r),
                   _mm_mul_pd(_mm_set1_pd(kLumaG), g)),
        _mm_mul_pd(_mm_set1_pd(kLumaB), b));
    const __m128d cbv = _mm_add_pd(
        _mm_set1_pd(128.0),
        _mm_add_pd(_mm_sub_pd(_mm_mul_pd(_mm_set1_pd(-detail::kCbR), r),
                              _mm_mul_pd(_mm_set1_pd(detail::kCbG), g)),
                   _mm_mul_pd(_mm_set1_pd(detail::kCbB), b)));
    const __m128d crv = _mm_add_pd(
        _mm_set1_pd(128.0),
        _mm_sub_pd(_mm_sub_pd(_mm_mul_pd(_mm_set1_pd(detail::kCrR), r),
                              _mm_mul_pd(_mm_set1_pd(detail::kCrG), g)),
                   _mm_mul_pd(_mm_set1_pd(detail::kCrB), b)));
    _mm_storeu_pd(y + i, yv);
    _mm_storeu_pd(cb + i, cbv);
    _mm_storeu_pd(cr + i, crv);
  }
  detail::rgbToPlanesRange(px + i, n - i, y + i, cb + i, cr + i);
}

void planesToRgbSse2(const double* y, const double* cb, const double* cr,
                     std::size_t n, Rgb8* out) {
  const __m128d c128 = _mm_set1_pd(128.0);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128d yv = _mm_loadu_pd(y + i);
    const __m128d cbv = _mm_sub_pd(_mm_loadu_pd(cb + i), c128);
    const __m128d crv = _mm_sub_pd(_mm_loadu_pd(cr + i), c128);
    const __m128i r =
        clamp8x2(_mm_add_pd(yv, _mm_mul_pd(_mm_set1_pd(detail::kRCr), crv)));
    const __m128i g = clamp8x2(
        _mm_sub_pd(_mm_sub_pd(yv, _mm_mul_pd(_mm_set1_pd(detail::kGCb), cbv)),
                   _mm_mul_pd(_mm_set1_pd(detail::kGCr), crv)));
    const __m128i b =
        clamp8x2(_mm_add_pd(yv, _mm_mul_pd(_mm_set1_pd(detail::kBCb), cbv)));
    // Bytes r0 r1 g0 g1 b0 b1 in the low 48 bits; interleave to RGB RGB.
    const __m128i w = _mm_packs_epi32(_mm_unpacklo_epi64(r, g), b);
    const std::uint64_t v =
        static_cast<std::uint64_t>(_mm_cvtsi128_si64(_mm_packus_epi16(w, w)));
    out[i] = Rgb8{static_cast<std::uint8_t>(v), static_cast<std::uint8_t>(v >> 16),
                  static_cast<std::uint8_t>(v >> 32)};
    out[i + 1] =
        Rgb8{static_cast<std::uint8_t>(v >> 8), static_cast<std::uint8_t>(v >> 24),
             static_cast<std::uint8_t>(v >> 40)};
  }
  detail::planesToRgbRange(y + i, cb + i, cr + i, n - i, out + i);
}

}  // namespace

const KernelTable& sse2Table() noexcept {
  static constexpr KernelTable kTable{
      Level::kSse2,        profileRgbSse2,    profileGraySse2,
      maxChannelHistogramSse2, lumaPlaneSse2, histAccumulateSse2,
      emdNumeratorSse2,    scalePixelsSse2,   countClippedSse2,
      tailBudgetLevelSse2, lowPointSse2,      highPointSse2,
      forwardDct8x8Sse2,   inverseDct8x8Sse2, rgbToPlanesSse2,
      planesToRgbSse2,
  };
  return kTable;
}

}  // namespace anno::media::kernels

#endif  // x86-64
