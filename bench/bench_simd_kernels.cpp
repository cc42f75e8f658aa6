// Per-kernel cost of the SIMD dispatch layer (src/media/kernels) at every
// level available on this machine, against the scalar reference.  The
// fused frame profile must beat scalar by >= 2x and the 256-bin EMD by
// >= 4x on x86-64; the 8x8 DCT pair's and the codec colour pair's speedups
// are reported, not gated.  The inverse DCT is timed once more per block
// density (DC-only, one live row, two live rows, dense), because it skips
// all-zero rows.  Every variant's output is checked equal to scalar before
// its timing is reported; divergence aborts with EXIT_FAILURE (the
// bit-identical contract is not a benchmark knob).  Emits
// BENCH_simd_kernels.json at the repo root, with the build type and
// compiler it was measured under.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "media/image.h"
#include "media/kernels/kernels.h"
#include "media/pixel.h"
#include "media/rng.h"

namespace {

using Clock = std::chrono::steady_clock;
using namespace anno;
using media::kernels::FrameProfile;
using media::kernels::KernelTable;
using media::kernels::Level;
using media::kernels::Uint128;

constexpr int kWidth = 320;
constexpr int kHeight = 240;  // the paper's clip resolution
constexpr int kReps = 9;
constexpr std::size_t kDctBlocks = 64;  // distinct input blocks per DCT op
#ifdef ANNO_BUILD_TYPE
constexpr const char* kBuildType = ANNO_BUILD_TYPE;
#else
constexpr const char* kBuildType = "unknown";
#endif
#if defined(__clang__)
constexpr const char* kCompiler = "Clang " __clang_version__;
#else
constexpr const char* kCompiler = "GCC " __VERSION__;
#endif

/// Times fn() (already iterated internally) and returns best-of-reps
/// seconds per op.
template <typename F>
double timeOp(std::size_t iters, const F& fn) {
  double best = 1e300;
  for (int r = 0; r < kReps; ++r) {
    const Clock::time_point start = Clock::now();
    for (std::size_t i = 0; i < iters; ++i) fn();
    const double s =
        std::chrono::duration<double>(Clock::now() - start).count();
    best = std::min(best, s / static_cast<double>(iters));
  }
  return best;
}

struct LevelResult {
  Level level;
  double nsPerOp = 0.0;
  double speedup = 1.0;  // scalar time / this time
};

struct KernelResult {
  std::string kernel;
  double opsUnit = 0.0;  // pixels (or bins) per op, for the table
  std::vector<LevelResult> levels;
};

volatile std::uint64_t g_sink = 0;  // defeat dead-code elimination
void sink(std::uint64_t v) { g_sink = g_sink + v; }

}  // namespace

int main() {
  bench::printHeader(
      "SIMD kernel layer: per-kernel cost per dispatch level vs scalar");
  std::printf("build type: %s, compiler: %s\n", kBuildType, kCompiler);

  const std::vector<Level> levels = media::kernels::availableLevels();
  std::printf("dispatch levels available:");
  for (Level l : levels) std::printf(" %s", media::kernels::levelName(l));
  std::printf("  (active: %s)\n",
              media::kernels::levelName(media::kernels::activeLevel()));

  // Workload: one paper-resolution frame of random content, plus a second
  // frame for the EMD pair.  Deterministic, so runs are comparable.
  const std::size_t n = static_cast<std::size_t>(kWidth) * kHeight;
  media::Image frameA(kWidth, kHeight);
  media::Image frameB(kWidth, kHeight);
  media::SplitMix64 rng(0x51D);
  for (media::Rgb8& p : frameA.pixels()) {
    const std::uint64_t r = rng.next();
    p = media::Rgb8{static_cast<std::uint8_t>(r),
                    static_cast<std::uint8_t>(r >> 8),
                    static_cast<std::uint8_t>(r >> 16)};
  }
  for (media::Rgb8& p : frameB.pixels()) {
    const std::uint64_t r = rng.next();
    p = media::Rgb8{static_cast<std::uint8_t>(r),
                    static_cast<std::uint8_t>(r >> 8),
                    static_cast<std::uint8_t>(r >> 16)};
  }
  const media::Rgb8* pxA = frameA.pixels().data();

  FrameProfile profA;
  FrameProfile profB;
  media::kernels::tableFor(Level::kScalar)->profileRgb(pxA, n, profA);
  media::kernels::tableFor(Level::kScalar)
      ->profileRgb(frameB.pixels().data(), n, profB);

  const KernelTable* scalar = media::kernels::tableFor(Level::kScalar);
  bool identical = true;
  std::vector<KernelResult> results;

  const auto report = [&](const char* name, double unit, auto&& makeOp,
                          std::size_t iters) {
    KernelResult kr;
    kr.kernel = name;
    kr.opsUnit = unit;
    double scalarNs = 0.0;
    for (Level level : levels) {
      const KernelTable* table = media::kernels::tableFor(level);
      auto op = makeOp(table);  // returns closure; also checks correctness
      LevelResult lr;
      lr.level = level;
      lr.nsPerOp = 1e9 * timeOp(iters, op);
      if (level == Level::kScalar) scalarNs = lr.nsPerOp;
      lr.speedup = scalarNs > 0.0 ? scalarNs / lr.nsPerOp : 1.0;
      kr.levels.push_back(lr);
    }
    results.push_back(std::move(kr));
  };

  // (1) Fused frame profile.
  report(
      "profile_rgb", static_cast<double>(n),
      [&](const KernelTable* table) {
        FrameProfile check;
        table->profileRgb(pxA, n, check);
        identical = identical && check.hist == profA.hist &&
                    check.lumaSum == profA.lumaSum &&
                    check.minLuma == profA.minLuma &&
                    check.maxLuma == profA.maxLuma;
        return [table, pxA, n] {
          FrameProfile out;
          table->profileRgb(pxA, n, out);
          sink(out.lumaSum);
        };
      },
      40);

  // (3) 256-bin EMD numerator (the scene detector's per-frame cost).
  const Uint128 wantEmd =
      scalar->emdNumerator(profA.hist.data(), n, profB.hist.data(), n);
  report(
      "emd_256", 256.0,
      [&](const KernelTable* table) {
        identical =
            identical && table->emdNumerator(profA.hist.data(), n,
                                             profB.hist.data(), n) == wantEmd;
        return [table, &profA, &profB, n] {
          sink(static_cast<std::uint64_t>(table->emdNumerator(
              profA.hist.data(), n, profB.hist.data(), n)));
        };
      },
      20000);

  // (4) Compensation transform and clipped counting.
  const double kGain = 1.6;
  std::vector<media::Rgb8> scaledWant(n);
  scalar->scalePixels(pxA, n, kGain, scaledWant.data());
  report(
      "scale_pixels", static_cast<double>(n),
      [&](const KernelTable* table) {
        std::vector<media::Rgb8> out(n);
        table->scalePixels(pxA, n, kGain, out.data());
        identical = identical &&
                    std::memcmp(out.data(), scaledWant.data(),
                                n * sizeof(media::Rgb8)) == 0;
        return [table, pxA, n, kGain] {
          static std::vector<media::Rgb8> dst(n);
          table->scalePixels(pxA, n, kGain, dst.data());
          sink(dst[0].r);
        };
      },
      40);

  const std::size_t wantClipped = scalar->countClipped(pxA, n, kGain);
  report(
      "count_clipped", static_cast<double>(n),
      [&](const KernelTable* table) {
        identical =
            identical && table->countClipped(pxA, n, kGain) == wantClipped;
        return [table, pxA, n, kGain] {
          sink(table->countClipped(pxA, n, kGain));
        };
      },
      100);

  // Max-channel histogram (clip-fraction planning; vectorized this PR).
  std::uint64_t maxHistWant[256] = {};
  scalar->maxChannelHistogram(pxA, n, maxHistWant);
  report(
      "max_channel_hist", static_cast<double>(n),
      [&](const KernelTable* table) {
        std::uint64_t got[256] = {};
        table->maxChannelHistogram(pxA, n, got);
        identical =
            identical && std::memcmp(got, maxHistWant, sizeof got) == 0;
        return [table, pxA, n] {
          std::uint64_t hist[256] = {};
          table->maxChannelHistogram(pxA, n, hist);
          sink(hist[128]);
        };
      },
      100);

  // (2) Histogram accumulate (scene statistics merge).
  report(
      "hist_accumulate", 256.0,
      [&](const KernelTable* table) {
        std::uint64_t want[256];
        std::uint64_t got[256];
        std::copy(profB.hist.begin(), profB.hist.end(), want);
        std::copy(profB.hist.begin(), profB.hist.end(), got);
        scalar->histAccumulate(want, profA.hist.data());
        table->histAccumulate(got, profA.hist.data());
        identical = identical && std::memcmp(want, got, sizeof want) == 0;
        return [table, &profA] {
          static std::uint64_t dst[256] = {};
          table->histAccumulate(dst, profA.hist.data());
          sink(dst[0]);
        };
      },
      50000);

  // Luma plane extraction (codec front-end).
  std::vector<std::uint8_t> planeWant(n);
  scalar->lumaPlane(pxA, n, planeWant.data());
  report(
      "luma_plane", static_cast<double>(n),
      [&](const KernelTable* table) {
        std::vector<std::uint8_t> out(n);
        table->lumaPlane(pxA, n, out.data());
        identical =
            identical && std::memcmp(out.data(), planeWant.data(), n) == 0;
        return [table, pxA, n] {
          static std::vector<std::uint8_t> dst(n);
          table->lumaPlane(pxA, n, dst.data());
          sink(dst[0]);
        };
      },
      40);

  // Codec colour pair (encoder front end, decoder back end).  One op = one
  // frame; the colour table below reports ns per pixel.  planes_to_rgb
  // converts the planes rgb_to_planes made of frame A.
  std::vector<double> planesWant(3 * n);
  double* const yWant = planesWant.data();
  scalar->rgbToPlanes(pxA, n, yWant, yWant + n, yWant + 2 * n);
  report(
      "rgb_to_planes", static_cast<double>(n),
      [&](const KernelTable* table) {
        std::vector<double> got(3 * n);
        table->rgbToPlanes(pxA, n, got.data(), got.data() + n,
                           got.data() + 2 * n);
        identical = identical && std::memcmp(got.data(), planesWant.data(),
                                             got.size() * sizeof(double)) ==
                                     0;
        return [table, pxA, n] {
          static std::vector<double> dst(3 * n);
          table->rgbToPlanes(pxA, n, dst.data(), dst.data() + n,
                             dst.data() + 2 * n);
          sink(static_cast<std::uint64_t>(dst[0]));
        };
      },
      40);
  std::vector<media::Rgb8> rgbWant(n);
  scalar->planesToRgb(yWant, yWant + n, yWant + 2 * n, n, rgbWant.data());
  report(
      "planes_to_rgb", static_cast<double>(n),
      [&](const KernelTable* table) {
        std::vector<media::Rgb8> got(n);
        table->planesToRgb(yWant, yWant + n, yWant + 2 * n, n, got.data());
        identical = identical &&
                    std::memcmp(got.data(), rgbWant.data(),
                                n * sizeof(media::Rgb8)) == 0;
        return [table, yWant, n] {
          static std::vector<media::Rgb8> dst(n);
          table->planesToRgb(yWant, yWant + n, yWant + 2 * n, n, dst.data());
          sink(dst[0].g);
        };
      },
      40);

  // 8x8 DCT pair (codec encode, closed-loop reconstruction, client and
  // proxy decode).  One op = one block; the inputs alternate intra samples
  // and mostly-zero dequantized coefficient blocks, as the codec sees them.
  std::vector<double> dctIn(kDctBlocks * 64, 0.0);
  for (std::size_t b = 0; b < kDctBlocks; ++b) {
    double* blk = dctIn.data() + b * 64;
    if (b % 2 == 0) {
      for (int i = 0; i < 64; ++i) {
        blk[i] = static_cast<double>(rng.below(256)) - 128.0;
      }
    } else {
      for (int i = 0; i < 4; ++i) {
        blk[rng.below(64)] = (static_cast<double>(rng.below(41)) - 20.0) *
                             static_cast<double>(1 + rng.below(99));
      }
    }
  }
  const auto reportDct = [&](const char* name,
                             void (*KernelTable::*entry)(const double*,
                                                         double*),
                             const std::vector<double>& blocks) {
    std::vector<double> want(blocks.size());
    for (std::size_t b = 0; b < kDctBlocks; ++b) {
      (scalar->*entry)(blocks.data() + b * 64, want.data() + b * 64);
    }
    report(
        name, 64.0,
        [&](const KernelTable* table) {
          std::vector<double> got(blocks.size());
          for (std::size_t b = 0; b < kDctBlocks; ++b) {
            (table->*entry)(blocks.data() + b * 64, got.data() + b * 64);
          }
          identical = identical && std::memcmp(got.data(), want.data(),
                                               got.size() * sizeof(double)) ==
                                       0;
          const auto fn = table->*entry;
          return [fn, in = blocks.data()] {
            static std::size_t next = 0;
            alignas(32) static double out[64];
            fn(in + (next++ % kDctBlocks) * 64, out);
            sink(static_cast<std::uint64_t>(out[0] != 0.0));
          };
        },
        200000);
  };
  reportDct("forward_dct_8x8", &KernelTable::forwardDct8x8, dctIn);
  reportDct("inverse_dct_8x8", &KernelTable::inverseDct8x8, dctIn);

  // Inverse DCT by block density: dequantized coefficient blocks whose
  // live (nonzero) rows are row 0 only with just the DC term, row 0, rows
  // 0-1, or all eight -- the shapes a decoder meets, densest last.
  const auto densityBlocks = [&](int liveRows, bool dcOnly) {
    std::vector<double> blocks(kDctBlocks * 64, 0.0);
    for (std::size_t b = 0; b < kDctBlocks; ++b) {
      double* blk = blocks.data() + b * 64;
      for (int i = 0; i < (dcOnly ? 1 : liveRows * 8); ++i) {
        blk[i] = (static_cast<double>(rng.below(41)) - 20.0) *
                 static_cast<double>(1 + rng.below(99));
      }
      for (int row = 0; row < liveRows; ++row) {
        blk[row * 8] = 8.0 + static_cast<double>(rng.below(200));  // live
      }
    }
    return blocks;
  };
  reportDct("inverse_dct_dc_only", &KernelTable::inverseDct8x8,
            densityBlocks(1, true));
  reportDct("inverse_dct_1_row", &KernelTable::inverseDct8x8,
            densityBlocks(1, false));
  reportDct("inverse_dct_2_rows", &KernelTable::inverseDct8x8,
            densityBlocks(2, false));
  reportDct("inverse_dct_dense", &KernelTable::inverseDct8x8,
            densityBlocks(8, false));

  bench::Table table({"kernel", "level", "ns/op", "ns/Kelem", "speedup"});
  for (const KernelResult& kr : results) {
    for (const LevelResult& lr : kr.levels) {
      table.addRow({kr.kernel, media::kernels::levelName(lr.level),
                    bench::fmt(lr.nsPerOp, 1),
                    bench::fmt(1000.0 * lr.nsPerOp / kr.opsUnit, 2),
                    bench::fmt(lr.speedup, 2) + "x"});
    }
  }
  table.print();
  table.printCsv("simd_kernels");

  bench::Table colour({"colour kernel", "level", "ns/pixel", "speedup"});
  for (const KernelResult& kr : results) {
    if (kr.kernel != "rgb_to_planes" && kr.kernel != "planes_to_rgb") continue;
    for (const LevelResult& lr : kr.levels) {
      colour.addRow({kr.kernel, media::kernels::levelName(lr.level),
                     bench::fmt(lr.nsPerOp / kr.opsUnit, 3),
                     bench::fmt(lr.speedup, 2) + "x"});
    }
  }
  std::printf("\n");
  colour.print();
  std::printf("\nall variants bit-identical to scalar: %s\n",
              identical ? "yes" : "NO");

  // Acceptance targets (x86-64): best level must reach 4x on EMD and 2x on
  // the fused profile.
  double bestEmd = 1.0;
  double bestProfile = 1.0;
  double bestDct = 1.0;
  for (const KernelResult& kr : results) {
    for (const LevelResult& lr : kr.levels) {
      if (kr.kernel == "emd_256") bestEmd = std::max(bestEmd, lr.speedup);
      if (kr.kernel == "profile_rgb") {
        bestProfile = std::max(bestProfile, lr.speedup);
      }
      if (kr.kernel.ends_with("_dct_8x8")) {
        bestDct = std::max(bestDct, lr.speedup);
      }
    }
  }
#if defined(__x86_64__) || defined(_M_X64)
  const bool targetsApply = true;
#else
  const bool targetsApply = false;
#endif
  const bool targetsMet = bestEmd >= 4.0 && bestProfile >= 2.0;
  std::printf("best speedups: emd_256 %.2fx (target 4x), profile_rgb %.2fx "
              "(target 2x) -> %s\n",
              bestEmd, bestProfile,
              !targetsApply ? "n/a (non-x86)" : targetsMet ? "MET" : "MISSED");
  std::printf("best dct_8x8 speedup: %.2fx (reported, not a target)\n",
              bestDct);

  const std::string jsonFile = bench::jsonPath("BENCH_simd_kernels.json");
  if (std::FILE* json = std::fopen(jsonFile.c_str(), "w")) {
    std::fprintf(json, "{\n  \"workload\": {\"width\": %d, \"height\": %d},\n",
                 kWidth, kHeight);
    std::fprintf(json,
                 "  \"build_type\": \"%s\",\n  \"compiler\": \"%s\",\n"
                 "  \"timing\": \"best of %d repetitions per kernel and "
                 "level\",\n",
                 kBuildType, kCompiler, kReps);
    std::fprintf(json, "  \"levels\": [");
    for (std::size_t i = 0; i < levels.size(); ++i) {
      std::fprintf(json, "%s\"%s\"", i ? ", " : "",
                   media::kernels::levelName(levels[i]));
    }
    std::fprintf(json, "],\n  \"kernels\": [\n");
    for (std::size_t i = 0; i < results.size(); ++i) {
      const KernelResult& kr = results[i];
      std::fprintf(json, "    {\"kernel\": \"%s\", \"elems_per_op\": %.0f, "
                         "\"levels\": [",
                   kr.kernel.c_str(), kr.opsUnit);
      for (std::size_t j = 0; j < kr.levels.size(); ++j) {
        const LevelResult& lr = kr.levels[j];
        std::fprintf(json,
                     "%s{\"level\": \"%s\", \"ns_per_op\": %.1f, "
                     "\"ns_per_elem\": %.4f, \"speedup_vs_scalar\": %.3f}",
                     j ? ", " : "", media::kernels::levelName(lr.level),
                     lr.nsPerOp, lr.nsPerOp / kr.opsUnit, lr.speedup);
      }
      std::fprintf(json, "]}%s\n", i + 1 < results.size() ? "," : "");
    }
    std::fprintf(json,
                 "  ],\n  \"bit_identical\": %s,\n"
                 "  \"best_emd_speedup\": %.3f,\n"
                 "  \"best_profile_speedup\": %.3f,\n"
                 "  \"best_dct_speedup\": %.3f,\n"
                 "  \"targets\": {\"emd_min\": 4.0, \"profile_min\": 2.0, "
                 "\"apply\": %s, \"met\": %s}\n}\n",
                 identical ? "true" : "false", bestEmd, bestProfile, bestDct,
                 targetsApply ? "true" : "false",
                 targetsMet ? "true" : "false");
    std::fclose(json);
    std::printf("wrote %s\n", jsonFile.c_str());
  }

  if (!identical) {
    std::fprintf(stderr,
                 "FATAL: a SIMD variant diverged from the scalar reference\n");
    return EXIT_FAILURE;
  }
  return EXIT_SUCCESS;
}
