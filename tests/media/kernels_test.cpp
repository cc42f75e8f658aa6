// Property tests for the SIMD kernel layer: every available dispatch level
// must produce output BYTE-IDENTICAL to the scalar reference, on every
// input shape that exercises a different code path -- ragged tails (sizes
// not divisible by any vector width), empty and 1-pixel frames, full
// saturation, and randomized content -- the 8x8 DCT pair over 100k
// seeded blocks and every zero-row mask of the inverse, and the codec
// colour pair over every RGB triple and the clamp edges.  See kernels.h for
// the contract.
#include "media/kernels/kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <numbers>
#include <vector>

#include "compensate/compensate.h"
#include "media/codec.h"
#include "media/dct.h"
#include "media/histogram.h"
#include "media/image.h"
#include "media/kernels/kernels_internal.h"
#include "media/luminance.h"
#include "media/pixel.h"
#include "media/rng.h"

namespace anno::media::kernels {
namespace {

// Sizes chosen to straddle every vector width in play (2, 4, 16, 32
// pixels per iteration) plus their overread guards.
constexpr std::size_t kSizes[] = {0,  1,  2,  3,  4,   5,   6,   7,  8,
                                  15, 16, 17, 31, 32,  33,  47,  48, 49,
                                  63, 64, 95, 97, 255, 256, 1000};

Image randomImage(std::size_t n, std::uint64_t seed) {
  // Histogram/EMD inputs live on frames; fake a 1-row frame of n pixels.
  Image img = n == 0 ? Image{} : Image(static_cast<int>(n), 1);
  SplitMix64 rng(seed);
  for (Rgb8& p : img.pixels()) {
    const std::uint64_t r = rng.next();
    p = Rgb8{static_cast<std::uint8_t>(r), static_cast<std::uint8_t>(r >> 8),
             static_cast<std::uint8_t>(r >> 16)};
  }
  return img;
}

GrayImage randomGray(std::size_t n, std::uint64_t seed) {
  GrayImage img = n == 0 ? GrayImage{} : GrayImage(static_cast<int>(n), 1);
  SplitMix64 rng(seed);
  for (std::uint8_t& p : img.pixels()) {
    p = static_cast<std::uint8_t>(rng.next());
  }
  return img;
}

/// Straight-line per-pixel reference, written independently of the kernel
/// layer's shared helpers.
FrameProfile referenceProfile(std::span<const Rgb8> px) {
  FrameProfile out;
  int mn = 255;
  int mx = 0;
  for (const Rgb8& p : px) {
    const std::uint8_t y = luma8(p);
    ++out.hist[y];
    out.lumaSum += y;
    mn = std::min<int>(mn, y);
    mx = std::max<int>(mx, y);
  }
  out.minLuma = px.empty() ? 0 : static_cast<std::uint8_t>(mn);
  out.maxLuma = px.empty() ? 0 : static_cast<std::uint8_t>(mx);
  return out;
}

void expectProfileEq(const FrameProfile& got, const FrameProfile& want,
                     const char* what, Level level, std::size_t n) {
  SCOPED_TRACE(testing::Message() << what << " level=" << levelName(level)
                                  << " n=" << n);
  EXPECT_EQ(got.hist, want.hist);
  EXPECT_EQ(got.lumaSum, want.lumaSum);
  EXPECT_EQ(got.minLuma, want.minLuma);
  EXPECT_EQ(got.maxLuma, want.maxLuma);
}

TEST(Kernels, ScalarAlwaysAvailable) {
  EXPECT_TRUE(available(Level::kScalar));
  ASSERT_NE(tableFor(Level::kScalar), nullptr);
  EXPECT_EQ(tableFor(Level::kScalar)->level, Level::kScalar);
  EXPECT_FALSE(availableLevels().empty());
  EXPECT_EQ(availableLevels().front(), Level::kScalar);
}

TEST(Kernels, LevelNamesRoundTrip) {
  for (Level level : {Level::kScalar, Level::kSse2, Level::kAvx2,
                      Level::kNeon}) {
    EXPECT_EQ(parseLevel(levelName(level)), level);
  }
  EXPECT_EQ(parseLevel("mmx"), std::nullopt);
  EXPECT_EQ(parseLevel(""), std::nullopt);
}

TEST(Kernels, ProfileRgbMatchesScalarOnAllShapes) {
  for (Level level : availableLevels()) {
    const KernelTable* table = tableFor(level);
    ASSERT_NE(table, nullptr);
    for (std::size_t n : kSizes) {
      const Image img = randomImage(n, 0xA11CE + n);
      const FrameProfile want = referenceProfile(img.pixels());
      FrameProfile got;
      table->profileRgb(img.pixels().data(), n, got);
      expectProfileEq(got, want, "profileRgb", level, n);
    }
  }
}

TEST(Kernels, ProfileRgbSaturatedAndFlat) {
  for (Level level : availableLevels()) {
    const KernelTable* table = tableFor(level);
    for (std::size_t n : {1u, 31u, 64u, 333u}) {
      Image img(static_cast<int>(n), 1, Rgb8{255, 255, 255});
      FrameProfile got;
      table->profileRgb(img.pixels().data(), n, got);
      EXPECT_EQ(got.hist[255], n);
      EXPECT_EQ(got.lumaSum, 255u * n);
      EXPECT_EQ(got.minLuma, 255);
      EXPECT_EQ(got.maxLuma, 255);
    }
  }
}

TEST(Kernels, ProfileGrayMatchesScalarOnAllShapes) {
  const KernelTable* scalar = tableFor(Level::kScalar);
  for (Level level : availableLevels()) {
    const KernelTable* table = tableFor(level);
    for (std::size_t n : kSizes) {
      const GrayImage img = randomGray(n, 0xBEEF + n);
      FrameProfile want;
      scalar->profileGray(img.pixels().data(), n, want);
      FrameProfile got;
      table->profileGray(img.pixels().data(), n, got);
      expectProfileEq(got, want, "profileGray", level, n);
    }
  }
}

TEST(Kernels, MaxChannelHistogramMatchesScalar) {
  const KernelTable* scalar = tableFor(Level::kScalar);
  for (Level level : availableLevels()) {
    const KernelTable* table = tableFor(level);
    for (std::size_t n : kSizes) {
      const Image img = randomImage(n, 0xC0FFEE + n);
      std::uint64_t want[256] = {};
      std::uint64_t got[256] = {};
      scalar->maxChannelHistogram(img.pixels().data(), n, want);
      table->maxChannelHistogram(img.pixels().data(), n, got);
      for (int v = 0; v < 256; ++v) {
        ASSERT_EQ(got[v], want[v]) << levelName(level) << " n=" << n
                                   << " bin=" << v;
      }
    }
  }
}

TEST(Kernels, MaxChannelHistogramMatchesIndependentReference) {
  // MatchesScalar above compares dispatch variants against each other,
  // which is vacuous while every level delegates to one shared helper --
  // if that helper miscounted, all levels would agree on the wrong answer.
  // This case pins every level against an independent per-pixel
  // max(r,g,b) walk, so a future vectorized variant (and the current
  // scalar one) is checked against ground truth, not against itself.
  for (Level level : availableLevels()) {
    const KernelTable* table = tableFor(level);
    for (std::size_t n : kSizes) {
      const Image img = randomImage(n, 0x3A9C + n);
      std::uint64_t want[256] = {};
      for (const Rgb8& p : img.pixels()) {
        ++want[std::max({p.r, p.g, p.b})];
      }
      std::uint64_t got[256] = {};
      table->maxChannelHistogram(img.pixels().data(), n, got);
      for (int v = 0; v < 256; ++v) {
        ASSERT_EQ(got[v], want[v])
            << levelName(level) << " n=" << n << " bin=" << v;
      }
    }
  }
}

TEST(Kernels, MaxChannelHistogramAccumulatesIntoExistingBins) {
  // The kernel contract is ACCUMULATE, not assign: Histogram::ofMaxChannel
  // hands over a zeroed array, but callers may merge several pixel ranges
  // into one histogram.  A vectorized variant that folds its banked
  // counters with an assignment would pass every zero-start case above and
  // still be wrong here.
  for (Level level : availableLevels()) {
    const KernelTable* table = tableFor(level);
    for (std::size_t n : {5u, 16u, 33u, 250u}) {
      const Image img = randomImage(n, 0xADD + n);
      std::uint64_t want[256];
      std::uint64_t got[256];
      for (int v = 0; v < 256; ++v) {
        want[v] = got[v] = 7u * static_cast<unsigned>(v) + 1;
      }
      for (const Rgb8& p : img.pixels()) {
        ++want[std::max({p.r, p.g, p.b})];
      }
      table->maxChannelHistogram(img.pixels().data(), n, got);
      for (int v = 0; v < 256; ++v) {
        ASSERT_EQ(got[v], want[v])
            << levelName(level) << " n=" << n << " bin=" << v;
      }
    }
  }
}

TEST(Kernels, MaxChannelHistogramChannelDominancePatterns) {
  // Crafted frames where one known channel holds the maximum at every
  // pixel: catches a deinterleave that samples the wrong byte lane, which
  // random content can mask when maxima land on mixed channels.
  for (Level level : availableLevels()) {
    const KernelTable* table = tableFor(level);
    for (int dom = 0; dom < 3; ++dom) {
      const std::size_t n = 129;  // ragged for every vector width in play
      Image img(static_cast<int>(n), 1);
      std::uint64_t want[256] = {};
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint8_t hi = static_cast<std::uint8_t>(100 + i % 156);
        const std::uint8_t lo = static_cast<std::uint8_t>(i % 100);
        Rgb8 p{lo, lo, lo};
        (dom == 0 ? p.r : dom == 1 ? p.g : p.b) = hi;
        img.pixels()[i] = p;
        ++want[hi];
      }
      std::uint64_t got[256] = {};
      table->maxChannelHistogram(img.pixels().data(), n, got);
      for (int v = 0; v < 256; ++v) {
        ASSERT_EQ(got[v], want[v])
            << levelName(level) << " dom=" << dom << " bin=" << v;
      }
    }
  }
}

TEST(Kernels, LumaPlaneMatchesPerPixelLuma8) {
  for (Level level : availableLevels()) {
    const KernelTable* table = tableFor(level);
    for (std::size_t n : kSizes) {
      const Image img = randomImage(n, 0x7E57 + n);
      std::vector<std::uint8_t> got(n + 1, 0xEE);  // +1 canary
      table->lumaPlane(img.pixels().data(), n, got.data());
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(got[i], luma8(img.pixels()[i]))
            << levelName(level) << " n=" << n << " i=" << i;
      }
      EXPECT_EQ(got[n], 0xEE) << levelName(level) << " wrote past the end";
    }
  }
}

TEST(Kernels, HistAccumulateMatchesScalar) {
  SplitMix64 rng(0xACC);
  std::uint64_t src[256];
  for (std::uint64_t& c : src) c = rng.next() >> 30;
  for (Level level : availableLevels()) {
    std::uint64_t want[256];
    std::uint64_t got[256];
    for (int v = 0; v < 256; ++v) want[v] = got[v] = rng.next() >> 40;
    tableFor(Level::kScalar)->histAccumulate(want, src);
    tableFor(level)->histAccumulate(got, src);
    for (int v = 0; v < 256; ++v) {
      ASSERT_EQ(got[v], want[v]) << levelName(level) << " bin=" << v;
    }
  }
}

TEST(Kernels, ScalePixelsMatchesPerPixelScale) {
  const double ks[] = {1.0, 1.2, 1.7320508075688772, 2.5, 8.0, 300.0};
  for (Level level : availableLevels()) {
    const KernelTable* table = tableFor(level);
    for (std::size_t n : kSizes) {
      const Image img = randomImage(n, 0x5CA1E + n);
      for (double k : ks) {
        std::vector<Rgb8> got(n + 1, Rgb8{9, 9, 9});  // +1 canary
        table->scalePixels(img.pixels().data(), n, k, got.data());
        for (std::size_t i = 0; i < n; ++i) {
          const Rgb8 want = scale(img.pixels()[i], k);
          ASSERT_EQ(got[i].r, want.r) << levelName(level) << " k=" << k;
          ASSERT_EQ(got[i].g, want.g) << levelName(level) << " k=" << k;
          ASSERT_EQ(got[i].b, want.b) << levelName(level) << " k=" << k;
        }
        EXPECT_EQ(got[n].r, 9) << levelName(level) << " wrote past the end";
      }
    }
  }
}

TEST(Kernels, CountClippedMatchesPerPixelPredicate) {
  const double ks[] = {0.0, 1.0, 1.00001, 1.5, 2.0, 4.0, 128.0, 1e9};
  for (Level level : availableLevels()) {
    const KernelTable* table = tableFor(level);
    for (std::size_t n : kSizes) {
      const Image img = randomImage(n, 0xC11B + n);
      for (double k : ks) {
        std::size_t want = 0;
        for (const Rgb8& p : img.pixels()) {
          if (clipsWhenScaled(p, k)) ++want;
        }
        ASSERT_EQ(table->countClipped(img.pixels().data(), n, k), want)
            << levelName(level) << " n=" << n << " k=" << k;
      }
    }
  }
}

TEST(Kernels, ClipThresholdMatchesPredicateEverywhere) {
  // The threshold IS the predicate: for every k, code c clips iff
  // c >= clipThreshold(k).
  const double ks[] = {0.0, 0.5, 1.0, 255.0 / 254.0, 1.5,
                       2.0, 17.0, 255.0, 256.0, 1e12};
  for (double k : ks) {
    const int t = clipThreshold(k);
    for (int c = 0; c <= 255; ++c) {
      EXPECT_EQ(static_cast<double>(c) * k > 255.0, c >= t)
          << "k=" << k << " c=" << c;
    }
  }
}

TEST(Kernels, TailScansMatchScalar) {
  SplitMix64 rng(0x7A11);
  for (int trial = 0; trial < 8; ++trial) {
    std::uint64_t counts[256] = {};
    std::uint64_t total = 0;
    for (std::uint64_t& c : counts) {
      c = trial == 0 ? 0 : rng.next() >> (40 + (trial % 3) * 8);
      total += c;
    }
    const std::uint64_t budgets[] = {0, 1, total / 100, total / 10,
                                     total / 2, total, total + 1};
    const KernelTable* scalar = tableFor(Level::kScalar);
    for (Level level : availableLevels()) {
      const KernelTable* table = tableFor(level);
      for (std::uint64_t b : budgets) {
        EXPECT_EQ(table->tailBudgetLevel(counts, b),
                  scalar->tailBudgetLevel(counts, b));
        EXPECT_EQ(table->lowPoint(counts, b), scalar->lowPoint(counts, b));
        EXPECT_EQ(table->highPoint(counts, b), scalar->highPoint(counts, b));
      }
    }
  }
}

TEST(Kernels, EmdNumeratorMatchesScalarAndIsSymmetric) {
  SplitMix64 rng(0xE3D);
  for (int trial = 0; trial < 12; ++trial) {
    std::uint64_t a[256] = {};
    std::uint64_t b[256] = {};
    std::uint64_t ta = 0;
    std::uint64_t tb = 0;
    for (int v = 0; v < 256; ++v) {
      a[v] = rng.next() >> (44 - (trial % 4) * 4);
      b[v] = rng.next() >> (44 - (trial % 4) * 4);
      ta += a[v];
      tb += b[v];
    }
    if (trial % 3 == 0 && tb <= ta) {
      // Exercise the equal-totals factoring (the scene detector's case).
      b[255] += ta - tb;
      tb = ta;
    }
    const Uint128 want =
        tableFor(Level::kScalar)->emdNumerator(a, ta, b, tb);
    for (Level level : availableLevels()) {
      const Uint128 got = tableFor(level)->emdNumerator(a, ta, b, tb);
      EXPECT_TRUE(got == want) << levelName(level) << " trial=" << trial;
      const Uint128 sym = tableFor(level)->emdNumerator(b, tb, a, ta);
      EXPECT_TRUE(sym == want) << levelName(level) << " asymmetric";
    }
  }
}

TEST(Kernels, EmdNumeratorWideOperandsUseExactPath) {
  // Totals far above the 2^27 fast-path bound: every variant must fall
  // back to the 128-bit reference and still agree exactly.
  std::uint64_t a[256] = {};
  std::uint64_t b[256] = {};
  a[0] = 1ull << 40;
  a[255] = 1ull << 40;
  b[128] = (1ull << 41) + 12345;
  const std::uint64_t ta = a[0] + a[255];
  const std::uint64_t tb = b[128];
  const Uint128 want = tableFor(Level::kScalar)->emdNumerator(a, ta, b, tb);
  EXPECT_TRUE(want > 0);
  for (Level level : availableLevels()) {
    EXPECT_TRUE(tableFor(level)->emdNumerator(a, ta, b, tb) == want)
        << levelName(level);
  }
}

TEST(Kernels, EarthMoversBitIdenticalAcrossLevels) {
  // Public-API check: the one value the scene detector thresholds on.
  const Image x = randomImage(997, 1);
  const Image y = randomImage(997, 2);
  const Histogram hx = Histogram::ofImage(x);
  const Histogram hy = Histogram::ofImage(y);
  const double want = [&] {
    ScopedLevel guard(Level::kScalar);
    return Histogram::earthMovers(hx, hy);
  }();
  for (Level level : availableLevels()) {
    ScopedLevel guard(level);
    const double got = Histogram::earthMovers(hx, hy);
    EXPECT_EQ(got, want) << levelName(level);  // bitwise, not NEAR
    EXPECT_EQ(Histogram::earthMovers(hy, hx), want) << levelName(level);
  }
}

/// One seeded 8x8 block of the kind `kind` selects: the shapes the codec
/// feeds the DCT pair (intra samples, residuals, dequantized coefficient
/// blocks that are mostly zero) plus the edges of the double range the
/// contract must hold on (signed zeros, +-2^20 magnitudes, wide exponents).
Block8x8 dctBlock(int kind, SplitMix64& rng) {
  Block8x8 b{};
  switch (kind) {
    case 0:  // intra samples minus the 128 offset
      for (double& v : b) v = static_cast<double>(rng.below(256)) - 128.0;
      break;
    case 1:  // residuals
      for (double& v : b) v = rng.uniform(-255.0, 255.0);
      break;
    case 2: {  // dequantized coefficients: a few nonzero level * quant
      const int nonzero = static_cast<int>(rng.below(6));
      for (int i = 0; i < nonzero; ++i) {
        const double level = static_cast<double>(rng.below(41)) - 20.0;
        const double quant = static_cast<double>(1 + rng.below(255));
        b[rng.below(64)] = level * quant;
      }
      break;
    }
    case 3: {  // signed zeros, sometimes with one value among them
      // Mode 3 signs each zero against basis row k, so every product
      // of that row is -0.0: only a sum that starts from +0.0 (as the
      // scalar loop does) yields +0.0 there.
      const std::uint64_t mode = rng.below(4);
      const int k = static_cast<int>(rng.below(8));
      for (int i = 0; i < 64; ++i) {
        const double basis =
            std::cos((2.0 * (i % 8) + 1.0) * k * std::numbers::pi / 16.0);
        b[i] = mode == 0   ? -0.0
               : mode == 1 ? 0.0
               : mode == 2 ? (rng.below(2) == 0 ? 0.0 : -0.0)
                           : (basis > 0.0 ? -0.0 : 0.0);
      }
      if (rng.below(2) == 0) b[rng.below(64)] = rng.uniform(-4.0, 4.0);
      break;
    }
    case 4:  // +-2^20 magnitudes
      for (double& v : b) {
        const double sign = rng.below(2) == 0 ? 1.0 : -1.0;
        v = rng.below(4) == 0 ? sign * 1048576.0
                              : sign * rng.uniform(0.5, 1.0) * 1048576.0;
      }
      break;
    default:  // wide exponent range
      for (double& v : b) {
        const int exp = static_cast<int>(rng.below(61)) - 30;
        v = std::ldexp(rng.uniform(-1.0, 1.0), exp);
      }
      break;
  }
  return b;
}

TEST(Kernels, DctPairMatchesScalarBitForBit) {
  // Lanes are outputs and each output keeps the scalar summation order, so
  // every level must reproduce the scalar bits exactly (memcmp: signed
  // zeros included) on every block.
  const KernelTable* scalar = tableFor(Level::kScalar);
  const std::vector<Level> levels = availableLevels();
  SplitMix64 rng(0xDC7);
  constexpr int kBlocks = 100000;
  constexpr int kKinds = 6;
  std::size_t mismatches = 0;
  for (int i = 0; i < kBlocks; ++i) {
    const Block8x8 in = dctBlock(i % kKinds, rng);
    Block8x8 wantF;
    Block8x8 wantI;
    scalar->forwardDct8x8(in.data(), wantF.data());
    scalar->inverseDct8x8(in.data(), wantI.data());
    for (Level level : levels) {
      const KernelTable* table = tableFor(level);
      Block8x8 gotF;
      Block8x8 gotI;
      table->forwardDct8x8(in.data(), gotF.data());
      table->inverseDct8x8(in.data(), gotI.data());
      const bool same =
          std::memcmp(gotF.data(), wantF.data(), sizeof wantF) == 0 &&
          std::memcmp(gotI.data(), wantI.data(), sizeof wantI) == 0;
      if (!same && mismatches++ < 5) {
        ADD_FAILURE() << levelName(level) << " diverges on block " << i
                      << " (kind " << i % kKinds << ")";
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(Kernels, DctPairInPlaceMatchesOutOfPlace) {
  SplitMix64 rng(0xA11A5);
  for (Level level : availableLevels()) {
    const KernelTable* table = tableFor(level);
    for (int kind = 0; kind < 6; ++kind) {
      const Block8x8 in = dctBlock(kind, rng);
      for (auto fn : {table->forwardDct8x8, table->inverseDct8x8}) {
        Block8x8 want;
        fn(in.data(), want.data());
        Block8x8 inPlace = in;
        fn(inPlace.data(), inPlace.data());
        EXPECT_EQ(std::memcmp(inPlace.data(), want.data(), sizeof want), 0)
            << levelName(level) << " kind " << kind;
      }
    }
  }
}

/// The inverse DCT as plain dense loops over the shared cosine table: every
/// product of every row, zero or not.  The kernels skip zero rows; this is
/// what skipping must reproduce bit for bit.
Block8x8 denseInverseDct(const Block8x8& in) {
  const auto& C = detail::dctTables().c;
  double tmp[64];
  for (int j = 0; j < 8; ++j) {
    for (int x = 0; x < 8; ++x) {
      double acc = 0.0;
      for (int k = 0; k < 8; ++k) acc += in[j * 8 + k] * C[k][x];
      tmp[j * 8 + x] = acc;
    }
  }
  Block8x8 out;
  for (int x = 0; x < 8; ++x) {
    for (int y = 0; y < 8; ++y) {
      double acc = 0.0;
      for (int j = 0; j < 8; ++j) acc += tmp[j * 8 + x] * C[j][y];
      out[y * 8 + x] = acc;
    }
  }
  return out;
}

TEST(Kernels, InverseDctSkipsZeroRowsExactlyUnderEveryMask) {
  // Every subset of live rows, several contents each: live rows hold
  // random coefficients (zeros among them), dead rows +0.0, -0.0 or a mix.
  // Every level must equal the dense loops by memcmp, in and out of place.
  SplitMix64 rng(0x2E80);
  std::size_t mismatches = 0;
  for (unsigned mask = 0; mask < 256; ++mask) {
    for (int rep = 0; rep < 12; ++rep) {
      Block8x8 in{};
      for (int j = 0; j < 8; ++j) {
        const bool live = ((mask >> j) & 1u) != 0;
        const std::uint64_t zeroKind = rng.below(3);
        for (int k = 0; k < 8; ++k) {
          double& v = in[j * 8 + k];
          if (!live) {
            v = zeroKind == 0   ? 0.0
                : zeroKind == 1 ? -0.0
                                : (rng.below(2) == 0 ? 0.0 : -0.0);
          } else if (rng.below(3) == 0) {
            v = rng.below(2) == 0 ? 0.0 : -0.0;
          } else {
            v = (static_cast<double>(rng.below(41)) - 20.0) *
                static_cast<double>(1 + rng.below(255));
          }
        }
        // A live row must hold a nonzero; force one if the draw did not.
        if (live) {
          bool any = false;
          for (int k = 0; k < 8; ++k) any = any || in[j * 8 + k] != 0.0;
          if (!any) in[j * 8 + rng.below(8)] = 1.0 + rng.uniform(0.0, 9.0);
        }
      }
      const Block8x8 want = denseInverseDct(in);
      for (Level level : availableLevels()) {
        const KernelTable* table = tableFor(level);
        Block8x8 got;
        table->inverseDct8x8(in.data(), got.data());
        Block8x8 inPlace = in;
        table->inverseDct8x8(inPlace.data(), inPlace.data());
        const bool same =
            std::memcmp(got.data(), want.data(), sizeof want) == 0 &&
            std::memcmp(inPlace.data(), want.data(), sizeof want) == 0;
        if (!same && mismatches++ < 5) {
          ADD_FAILURE() << levelName(level) << " diverges from the dense "
                        << "loops under row mask 0x" << std::hex << mask;
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(Kernels, RgbToPlanesMatchesScalarOnEveryRgbTriple) {
  // All 2^24 triples, one red value (65536 pixels) per call.
  const KernelTable* scalar = tableFor(Level::kScalar);
  constexpr std::size_t kChunk = 65536;
  std::vector<Rgb8> px(kChunk);
  std::vector<double> want(3 * kChunk);
  std::vector<double> got(3 * kChunk);
  std::size_t mismatches = 0;
  for (int r = 0; r < 256; ++r) {
    for (std::size_t i = 0; i < kChunk; ++i) {
      px[i] = Rgb8{static_cast<std::uint8_t>(r),
                   static_cast<std::uint8_t>(i >> 8),
                   static_cast<std::uint8_t>(i)};
    }
    scalar->rgbToPlanes(px.data(), kChunk, want.data(), want.data() + kChunk,
                        want.data() + 2 * kChunk);
    for (Level level : availableLevels()) {
      if (level == Level::kScalar) continue;
      tableFor(level)->rgbToPlanes(px.data(), kChunk, got.data(),
                                   got.data() + kChunk,
                                   got.data() + 2 * kChunk);
      if (std::memcmp(got.data(), want.data(),
                      want.size() * sizeof(double)) != 0 &&
          mismatches++ < 5) {
        ADD_FAILURE() << levelName(level) << " diverges at red " << r;
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(Kernels, RgbToPlanesRaggedLengthsStayInBounds) {
  const KernelTable* scalar = tableFor(Level::kScalar);
  for (Level level : availableLevels()) {
    for (std::size_t n : kSizes) {
      const Image img = randomImage(n, 0x7CB + n);
      std::vector<double> want(3 * n);
      scalar->rgbToPlanes(img.pixels().data(), n, want.data(),
                          want.data() + n, want.data() + 2 * n);
      // Each plane gets one canary slot after its n doubles.
      std::vector<double> got(3 * (n + 1), -7.25);
      double* y = got.data();
      double* cb = y + n + 1;
      double* cr = cb + n + 1;
      tableFor(level)->rgbToPlanes(img.pixels().data(), n, y, cb, cr);
      SCOPED_TRACE(testing::Message() << levelName(level) << " n=" << n);
      if (n > 0) {  // memcmp takes no null pointer, even for zero bytes
        EXPECT_EQ(std::memcmp(y, want.data(), n * sizeof(double)), 0);
        EXPECT_EQ(std::memcmp(cb, want.data() + n, n * sizeof(double)), 0);
        EXPECT_EQ(std::memcmp(cr, want.data() + 2 * n, n * sizeof(double)),
                  0);
      }
      EXPECT_EQ(y[n], -7.25);
      EXPECT_EQ(cb[n], -7.25);
      EXPECT_EQ(cr[n], -7.25);
    }
  }
}

/// A luma or chroma sample near the places clamp8 rounds or clamps
/// differently: 0 and 255, +-0.0, x.5 and one ulp either side of it, and
/// magnitudes up to 2^1000 (finite, so no channel becomes NaN).
double clampEdgeSample(SplitMix64& rng) {
  const double halves[] = {0.5, 127.5, 254.5, 255.5,
                           static_cast<double>(rng.below(256)) + 0.5};
  switch (rng.below(7)) {
    case 0:
      return rng.below(2) == 0 ? 0.0 : -0.0;
    case 1:
      return rng.below(2) == 0 ? 255.0 : 0.0;
    case 2: {
      const double h = halves[rng.below(5)];
      const std::uint64_t side = rng.below(3);
      return side == 0 ? h
             : side == 1 ? std::nextafter(h, -1e9)
                         : std::nextafter(h, 1e9);
    }
    case 3:
      return std::nextafter(rng.below(2) == 0 ? 255.0 : 0.0,
                            rng.below(2) == 0 ? -1e9 : 1e9);
    case 4:  // far outside int32, where only the clamps keep the result
      return std::ldexp(rng.uniform(-2.0, 2.0),
                        static_cast<int>(rng.below(1000)));
    default:
      return rng.uniform(-40.0, 300.0);
  }
}

TEST(Kernels, PlanesToRgbMatchesScalarAtClampEdges) {
  // With both chroma planes at exactly 128 every channel equals the luma
  // sample, so the edge samples reach clamp8 unchanged; other pixels get
  // chroma offsets, edge samples or wide values of their own.
  const KernelTable* scalar = tableFor(Level::kScalar);
  SplitMix64 rng(0xC1A4);
  for (std::size_t n = 0; n <= 1000; ++n) {
    std::vector<double> y(n);
    std::vector<double> cb(n);
    std::vector<double> cr(n);
    for (std::size_t i = 0; i < n; ++i) {
      y[i] = clampEdgeSample(rng);
      const bool neutral = rng.below(2) == 0;
      cb[i] = neutral ? 128.0 : 128.0 + clampEdgeSample(rng) / 4.0;
      cr[i] = neutral ? 128.0 : 128.0 + clampEdgeSample(rng) / 4.0;
    }
    std::vector<Rgb8> want(n);
    scalar->planesToRgb(y.data(), cb.data(), cr.data(), n, want.data());
    for (Level level : availableLevels()) {
      std::vector<Rgb8> got(n + 1, Rgb8{0xA5, 0x5A, 0xC3});  // +1 canary
      tableFor(level)->planesToRgb(y.data(), cb.data(), cr.data(), n,
                                   got.data());
      ASSERT_TRUE(std::equal(want.begin(), want.end(), got.begin()))
          << levelName(level) << " n=" << n;
      ASSERT_EQ(got[n], (Rgb8{0xA5, 0x5A, 0xC3}))
          << levelName(level) << " wrote past n=" << n;
    }
  }
}

TEST(Kernels, PlanesToRgbIsClamp8OfTheColourEquations) {
  // Independent spelling of the decoder's colour step for neutral chroma:
  // every channel is clamp8(y).
  const double ys[] = {-0.0, 0.0, 0.25, 0.5, std::nextafter(0.5, 0.0),
                       254.5, std::nextafter(254.5, 255.0), 255.0, 300.0,
                       -3.0};
  for (Level level : availableLevels()) {
    for (double v : ys) {
      const double y[5] = {v, v, v, v, v};
      const double c[5] = {128.0, 128.0, 128.0, 128.0, 128.0};
      Rgb8 out[5];
      tableFor(level)->planesToRgb(y, c, c, 5, out);
      for (const Rgb8& p : out) {
        EXPECT_EQ(p, (Rgb8{clamp8(v), clamp8(v), clamp8(v)}))
            << levelName(level) << " y=" << v;
      }
    }
  }
}

TEST(Kernels, ScopedLevelSwapsAndRestores) {
  const Level before = activeLevel();
  {
    ScopedLevel guard(Level::kScalar);
    EXPECT_EQ(activeLevel(), Level::kScalar);
    const Image img = randomImage(123, 3);
    // Public API flows through the override.
    const Histogram h = Histogram::ofImage(img);
    EXPECT_EQ(h.total(), 123u);
  }
  EXPECT_EQ(activeLevel(), before);
}

TEST(Kernels, PublicApiIdenticalUnderEveryLevel) {
  // End-to-end equality through the real entry points, per level: the
  // values engine + planner consume must not depend on dispatch.
  const Image img = randomImage(1001, 4);
  struct Snapshot {
    Histogram hist;
    Histogram maxHist;
    FrameLuminance lum;
    GrayImage plane;
    double clipped;
    Block8x8 fdct;
    Block8x8 idct;
    std::vector<std::uint8_t> encoded;  // rgbToPlanes feeds the encoder
    Image decoded;                      // planesToRgb ends the decoder
  };
  Block8x8 block;
  SplitMix64 rng(5);
  for (double& v : block) v = rng.uniform(-128.0, 127.0);
  auto snapshot = [&img, &block] {
    const EncodedFrame frame = encodeFrame(img);
    return Snapshot{Histogram::ofImage(img), Histogram::ofMaxChannel(img),
                    analyzeLuminance(img),   lumaPlane(img),
                    compensate::clippedFraction(img, 1.9),
                    forwardDct(block),       inverseDct(block),
                    frame.bytes,
                    decodeFrame(frame, img.width(), img.height())};
  };
  const Snapshot want = [&] {
    ScopedLevel guard(Level::kScalar);
    return snapshot();
  }();
  for (Level level : availableLevels()) {
    ScopedLevel guard(level);
    const Snapshot got = snapshot();
    EXPECT_EQ(got.hist, want.hist) << levelName(level);
    EXPECT_EQ(got.maxHist, want.maxHist) << levelName(level);
    EXPECT_EQ(got.lum, want.lum) << levelName(level);
    EXPECT_TRUE(std::ranges::equal(got.plane.pixels(), want.plane.pixels()))
        << levelName(level);
    EXPECT_EQ(got.clipped, want.clipped) << levelName(level);
    EXPECT_EQ(std::memcmp(got.fdct.data(), want.fdct.data(), sizeof want.fdct),
              0)
        << levelName(level);
    EXPECT_EQ(std::memcmp(got.idct.data(), want.idct.data(), sizeof want.idct),
              0)
        << levelName(level);
    EXPECT_EQ(got.encoded, want.encoded) << levelName(level);
    EXPECT_TRUE(
        std::ranges::equal(got.decoded.pixels(), want.decoded.pixels()))
        << levelName(level);
  }
}

TEST(Kernels, ClippedFractionHistogramPathIsExact) {
  // Satellite: the O(256) histogram overload equals the pixel walk EXACTLY
  // (same double), for any gain, because both reduce to the same integer
  // count.
  const double ks[] = {0.0, 1.0, 1.0001, 1.3, 2.0, 5.5, 1e6};
  for (std::size_t n : {1u, 17u, 48u, 1000u}) {
    const Image img = randomImage(n, 0xFAB + n);
    const Histogram maxHist = Histogram::ofMaxChannel(img);
    EXPECT_EQ(maxHist.total(), n);
    for (double k : ks) {
      EXPECT_EQ(compensate::clippedFraction(maxHist, k),
                compensate::clippedFraction(img, k))
          << "n=" << n << " k=" << k;
    }
  }
  EXPECT_EQ(compensate::clippedFraction(Histogram{}, 2.0), 0.0);
}

TEST(Kernels, AnalyzeLuminanceIntegerSumMatchesReference) {
  // Satellite: meanLuma is now sum(luma8)/n with one final divide; check
  // against an independently computed exact mean.
  for (std::size_t n : {1u, 7u, 64u, 999u}) {
    const Image img = randomImage(n, 0x5EED + n);
    std::uint64_t sum = 0;
    for (const Rgb8& p : img.pixels()) sum += luma8(p);
    const FrameLuminance fl = analyzeLuminance(img);
    EXPECT_EQ(fl.meanLuma,
              static_cast<double>(sum) / static_cast<double>(n));
    EXPECT_EQ(fl.pixelCount, n);
  }
  EXPECT_EQ(analyzeLuminance(Image{}).pixelCount, 0u);
}

}  // namespace
}  // namespace anno::media::kernels
