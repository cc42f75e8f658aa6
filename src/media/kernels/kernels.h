// Runtime-dispatched SIMD kernels for the per-pixel / per-frame hot paths.
//
// Every frame served by this repo funnels through a handful of tight loops:
// luma extraction, 256-bin histogram build, min/max/sum stats, the
// compensation transform C' = min(1, C*k), clipped-pixel counting, the
// per-frame histogram earth-mover's distance of the EMD scene detector, and
// the codec's 8x8 forward/inverse DCT and RGB <-> YCbCr plane conversion.
// This layer provides one scalar reference implementation per kernel plus
// SSE2/AVX2 (x86-64) variants behind a single dispatch table selected once
// at startup via CPUID.  There is no NEON code: the `neon` level exists so
// the spelling parses everywhere, and on aarch64 it runs the scalar table.
//
// THE BIT-IDENTICAL CONTRACT (DESIGN.md sec. 12): every variant of every
// kernel produces output byte-identical to the scalar reference, on every
// input, by construction:
//
//   * Floating-point kernels (frame profile, pixel scale, colour
//     conversion) vectorize ACROSS pixels while keeping each pixel's
//     IEEE-754 operation sequence exactly the one the scalar code performs
//     (same multiplies, same adds, same order, no FMA contraction).  Lanes
//     are pixels, so vectorization cannot change any pixel's rounding.
//   * Integer kernels (histogram build/merge, EMD numerator, tail scans,
//     clipped counting) are exact, so accumulation order is irrelevant and
//     any lane decomposition gives the same result.
//   * The 8x8 DCT pair vectorizes ACROSS outputs: each lane is one output
//     coefficient (or sample), accumulated from 0.0 over its eight products
//     in ascending index order with separate multiplies and adds, exactly
//     as the scalar loop does.  Only the cosine operand is transposed or
//     broadcast, and IEEE multiplication is commutative, so every output
//     rounds identically.
//   * The inverse DCT skips all-zero input rows in both passes, at every
//     level including scalar.  Every accumulator starts at +0.0, and under
//     round-to-nearest a sum that starts at +0.0 never becomes -0.0 (x + y
//     is -0.0 only when both are -0.0).  A zero row -- +0.0 or -0.0
//     entries alike, since +-0 times a finite cosine is +-0 -- therefore
//     adds only +-0 products, and adding +-0 to a sum that is never -0.0
//     leaves it unchanged.  Pass 1 turns a zero row into a row of +0.0, so
//     pass 2 drops that row's products too.  Skipping is exact, not a
//     tolerance: skipping any subset of the zero rows gives the dense
//     loops' bits.  Every level decides alike, with one test on dense
//     blocks: a nonzero last row runs the dense loops; otherwise every zero
//     row among rows 0-6 drops out.  Zig-zag order fills the low rows
//     first, so decoded blocks nearly always end in zero rows.
//   * The EMD kernel computes an exact integer numerator
//         sum_v | cdfA(v)*totalB - cdfB(v)*totalA |
//     and performs a SINGLE final floating divide by totalA*totalB, so
//     scalar and SIMD agree bit-for-bit (and the result is symmetric in its
//     arguments exactly, which the old incremental-double version was not).
//
// Dispatch is overridable for testing with the ANNO_SIMD environment
// variable (scalar|sse2|avx2|neon) or the ANNO_SIMD CMake cache knob; an
// unavailable or unknown request falls back to the best available level
// with a one-line stderr warning.  The engine golden suite runs once per
// available level (tests/engine) and tests/media/kernels_test.cpp
// property-tests every variant against the scalar reference.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "media/pixel.h"

namespace anno::media::kernels {

/// Exact 128-bit unsigned integer for the EMD numerator (GCC/Clang).
using Uint128 = unsigned __int128;

/// Dispatch levels, worst to best.  kSse2 and kAvx2 exist only on x86-64
/// builds; kNeon is available only on aarch64, where it resolves to the
/// scalar table; kScalar always exists.
enum class Level : std::uint8_t { kScalar = 0, kSse2 = 1, kAvx2 = 2, kNeon = 3 };
inline constexpr std::size_t kLevelCount = 4;

[[nodiscard]] const char* levelName(Level level) noexcept;
[[nodiscard]] std::optional<Level> parseLevel(std::string_view name) noexcept;

/// Result of the fused per-frame profile pass: 256-bin luma histogram plus
/// min/max/sum of the 8-bit luma codes, all from ONE walk over the pixels.
/// For an empty span minLuma == maxLuma == 0 and everything else is zero.
struct FrameProfile {
  std::array<std::uint64_t, 256> hist{};
  std::uint64_t lumaSum = 0;  ///< exact integer sum of luma8 codes
  std::uint8_t minLuma = 0;
  std::uint8_t maxLuma = 0;
};

/// The dispatch table.  All function pointers are non-null in every
/// registered table.  Histogram arrays are 256 bins of uint64.
struct KernelTable {
  Level level = Level::kScalar;

  /// (1) Fused frame profile over interleaved RGB pixels: luma8 conversion
  /// + histogram + min/max/sum in one pass.
  void (*profileRgb)(const Rgb8* px, std::size_t n, FrameProfile& out);
  /// Fused frame profile over an 8-bit gray plane.
  void (*profileGray)(const std::uint8_t* px, std::size_t n,
                      FrameProfile& out);
  /// Max-channel histogram: hist[max(r,g,b)] per pixel (clip prediction).
  void (*maxChannelHistogram)(const Rgb8* px, std::size_t n,
                              std::uint64_t* hist);
  /// BT.601 luma plane extraction (out[i] = luma8(px[i])).
  void (*lumaPlane)(const Rgb8* px, std::size_t n, std::uint8_t* out);

  /// (2) Histogram accumulate: dst[v] += src[v] for all 256 bins.
  void (*histAccumulate)(std::uint64_t* dst, const std::uint64_t* src);

  /// (3) Exact EMD numerator: sum_v |cdfA(v)*totalB - cdfB(v)*totalA|.
  /// Mathematically exact for any operand (wide-integer fallback above the
  /// vector fast-path range), so all variants agree bit-for-bit.
  Uint128 (*emdNumerator)(const std::uint64_t* a, std::uint64_t totalA,
                          const std::uint64_t* b, std::uint64_t totalB);

  /// (4) Compensation transform: per-channel saturating scale
  /// dst[i] = media::scale(src[i], k).  k must be >= 0.
  void (*scalePixels)(const Rgb8* src, std::size_t n, double k, Rgb8* dst);
  /// Number of pixels with media::clipsWhenScaled(px[i], k).  k >= 0.
  std::size_t (*countClipped)(const Rgb8* px, std::size_t n, double k);

  /// (5) Tail scans over a 256-bin histogram.
  /// Smallest v in [1,255] with sum(counts[v..255]) > budget, else 0 --
  /// the clip-safe luminance scan of clipSafeLuma / safeLumaLevels /
  /// planForHistogram.
  int (*tailBudgetLevel)(const std::uint64_t* counts, std::uint64_t budget);
  /// First v from 0 upward with cumulative count > budget, else 255
  /// (Histogram::lowPoint body; caller handles the empty histogram).
  int (*lowPoint)(const std::uint64_t* counts, std::uint64_t budget);
  /// First v from 255 downward with cumulative count > budget, else 0.
  int (*highPoint)(const std::uint64_t* counts, std::uint64_t budget);

  /// (6) Separable orthonormal 8x8 DCT pair over row-major blocks of 64
  /// doubles: forward DCT-II (rows, then columns) and inverse DCT-III.
  /// `in` and `out` may alias.
  void (*forwardDct8x8)(const double* in, double* out);
  void (*inverseDct8x8)(const double* in, double* out);

  /// (7) Codec colour conversion between interleaved RGB and three
  /// full-range BT.601 YCbCr planes of doubles (chroma centred on 128).
  /// rgbToPlanes is the encoder's front end and rebuilds the P-frame
  /// reference; planesToRgb is the decoder's back end and rounds every
  /// channel with media::clamp8.  Planes are n doubles each, and no output
  /// may alias an input.
  void (*rgbToPlanes)(const Rgb8* px, std::size_t n, double* y, double* cb,
                      double* cr);
  void (*planesToRgb)(const double* y, const double* cb, const double* cr,
                      std::size_t n, Rgb8* out);
};

/// Smallest 8-bit channel code whose clamp-scale by k (k >= 0) clips, or
/// 256 if none does.  Derived by probing the EXACT scalar predicate
/// (monotone in the code for k >= 0), so it is shared ground truth for the
/// SIMD countClipped variants and for the O(256) histogram-based
/// clipped-fraction fast path (compensate::clippedFraction).
[[nodiscard]] int clipThreshold(double k) noexcept;

/// The active table.  Selected once on first use: ANNO_SIMD env var if set,
/// else the ANNO_SIMD CMake default if non-empty, else the best level the
/// CPU supports.  A relaxed pointer load thereafter.
[[nodiscard]] const KernelTable& active() noexcept;
[[nodiscard]] Level activeLevel() noexcept;

/// True if `level` is compiled in AND supported by this CPU.
[[nodiscard]] bool available(Level level) noexcept;
/// All available levels, ascending (kScalar always first).
[[nodiscard]] std::vector<Level> availableLevels();
/// Table for an explicit level, or nullptr if unavailable.  Used by the
/// differential tests and bench_simd_kernels; production code goes through
/// active().
[[nodiscard]] const KernelTable* tableFor(Level level) noexcept;

/// RAII dispatch override for tests: swaps the active table, restores on
/// destruction.  Not thread-safe against concurrent overrides; intended
/// for single-threaded test set-up (concurrent READERS of active() are
/// fine -- the pointer swap is atomic).
class ScopedLevel {
 public:
  explicit ScopedLevel(Level level);
  ~ScopedLevel();
  ScopedLevel(const ScopedLevel&) = delete;
  ScopedLevel& operator=(const ScopedLevel&) = delete;

 private:
  const KernelTable* previous_;
};

}  // namespace anno::media::kernels
