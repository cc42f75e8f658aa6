// Scalar reference kernels: the semantic definition every SIMD variant is
// property-tested against.  Clarity over speed -- the dispatcher never
// selects this level on x86-64 (SSE2 is baseline) unless forced with
// ANNO_SIMD=scalar.
#include <cmath>

#include "media/kernels/kernels.h"
#include "media/kernels/kernels_internal.h"

namespace anno::media::kernels {
namespace detail {

const DctTables& dctTables() noexcept {
  static const DctTables tables = [] {
    constexpr double kPi = 3.14159265358979323846;
    DctTables t{};
    for (int k = 0; k < 8; ++k) {
      const double ck = k == 0 ? std::sqrt(1.0 / 8.0) : std::sqrt(2.0 / 8.0);
      for (int n = 0; n < 8; ++n) {
        t.c[k][n] = ck * std::cos((2.0 * n + 1.0) * k * kPi / 16.0);
        t.ct[n][k] = t.c[k][n];
      }
    }
    return t;
  }();
  return tables;
}

void forwardDct8x8Reference(const double* in, double* out) {
  const auto& C = dctTables().c;
  // Separable: rows then columns.
  double tmp[64];
  for (int y = 0; y < 8; ++y) {
    for (int k = 0; k < 8; ++k) {
      double acc = 0.0;
      for (int x = 0; x < 8; ++x) acc += in[y * 8 + x] * C[k][x];
      tmp[y * 8 + k] = acc;
    }
  }
  for (int k = 0; k < 8; ++k) {
    for (int j = 0; j < 8; ++j) {
      double acc = 0.0;
      for (int y = 0; y < 8; ++y) acc += tmp[y * 8 + k] * C[j][y];
      out[j * 8 + k] = acc;
    }
  }
}

void inverseDct8x8Reference(const double* in, double* out) {
  const auto& C = dctTables().c;
  // live(j): input row j holds a value other than +-0.0.
  const auto live = [in](int j) {
    for (int k = 0; k < 8; ++k) {
      if (in[j * 8 + k] != 0.0) return true;
    }
    return false;
  };
  double tmp[64];
  if (live(7)) {
    // A live last row marks a dense block: the plain loops, which an
    // optimizing compiler vectorizes (any zero rows among the others cost
    // their products, not their bits).
    for (int j = 0; j < 8; ++j) {
      for (int x = 0; x < 8; ++x) {
        double acc = 0.0;
        for (int k = 0; k < 8; ++k) acc += in[j * 8 + k] * C[k][x];
        tmp[j * 8 + x] = acc;
      }
    }
    for (int x = 0; x < 8; ++x) {
      for (int y = 0; y < 8; ++y) {
        double acc = 0.0;
        for (int j = 0; j < 8; ++j) acc += tmp[j * 8 + x] * C[j][y];
        out[y * 8 + x] = acc;
      }
    }
    return;
  }
  // Otherwise the zero rows drop out of both passes: a dead row's pass-1
  // sums are +0.0 and its pass-2 products +-0, which leave every sum
  // unchanged (kernels.h).  Each output accumulates in its own slot, from
  // +0.0 in ascending index order, along a row so the loops vectorize.
  bool liveRow[7];
  for (int j = 0; j < 7; ++j) {
    double* row = tmp + j * 8;
    for (int x = 0; x < 8; ++x) row[x] = 0.0;
    liveRow[j] = live(j);
    if (!liveRow[j]) continue;
    for (int k = 0; k < 8; ++k) {
      const double a = in[j * 8 + k];
      for (int x = 0; x < 8; ++x) row[x] += a * C[k][x];
    }
  }
  for (int y = 0; y < 8; ++y) {
    double acc[8] = {};
    for (int j = 0; j < 7; ++j) {
      if (!liveRow[j]) continue;
      const double c = C[j][y];
      for (int x = 0; x < 8; ++x) acc[x] += tmp[j * 8 + x] * c;
    }
    for (int x = 0; x < 8; ++x) out[y * 8 + x] = acc[x];
  }
}

}  // namespace detail

namespace {

void profileRgbScalar(const Rgb8* px, std::size_t n, FrameProfile& out) {
  out = FrameProfile{};
  int minAcc = 255;
  int maxAcc = 0;
  detail::profileRgbRange(px, n, out, minAcc, maxAcc);
  detail::finishProfile(out, n, minAcc, maxAcc);
}

void profileGrayScalar(const std::uint8_t* px, std::size_t n,
                       FrameProfile& out) {
  out = FrameProfile{};
  int minAcc = 255;
  int maxAcc = 0;
  detail::profileGrayRange(px, n, out, minAcc, maxAcc);
  detail::finishProfile(out, n, minAcc, maxAcc);
}

void maxChannelHistogramScalar(const Rgb8* px, std::size_t n,
                               std::uint64_t* hist) {
  detail::maxChannelRange(px, n, hist);
}

void lumaPlaneScalar(const Rgb8* px, std::size_t n, std::uint8_t* out) {
  detail::lumaPlaneRange(px, n, out);
}

void histAccumulateScalar(std::uint64_t* dst, const std::uint64_t* src) {
  detail::histAccumulateRange(dst, src);
}

Uint128 emdNumeratorScalar(const std::uint64_t* a, std::uint64_t totalA,
                           const std::uint64_t* b, std::uint64_t totalB) {
  return detail::emdNumeratorExact(a, totalA, b, totalB);
}

void scalePixelsScalar(const Rgb8* src, std::size_t n, double k, Rgb8* dst) {
  detail::scaleRange(src, n, k, dst);
}

std::size_t countClippedScalar(const Rgb8* px, std::size_t n, double k) {
  return detail::countClippedRange(px, n, k);
}

int tailBudgetLevelScalar(const std::uint64_t* counts, std::uint64_t budget) {
  return detail::tailBudgetLevelRange(counts, budget);
}

int lowPointScalar(const std::uint64_t* counts, std::uint64_t budget) {
  return detail::lowPointRange(counts, budget);
}

int highPointScalar(const std::uint64_t* counts, std::uint64_t budget) {
  return detail::highPointRange(counts, budget);
}

void rgbToPlanesScalar(const Rgb8* px, std::size_t n, double* y, double* cb,
                       double* cr) {
  detail::rgbToPlanesRange(px, n, y, cb, cr);
}

void planesToRgbScalar(const double* y, const double* cb, const double* cr,
                       std::size_t n, Rgb8* out) {
  detail::planesToRgbRange(y, cb, cr, n, out);
}

}  // namespace

const KernelTable& scalarTable() noexcept {
  static constexpr KernelTable kTable{
      Level::kScalar,        profileRgbScalar,    profileGrayScalar,
      maxChannelHistogramScalar, lumaPlaneScalar, histAccumulateScalar,
      emdNumeratorScalar,    scalePixelsScalar,   countClippedScalar,
      tailBudgetLevelScalar, lowPointScalar,      highPointScalar,
      detail::forwardDct8x8Reference, detail::inverseDct8x8Reference,
      rgbToPlanesScalar,     planesToRgbScalar,
  };
  return kTable;
}

}  // namespace anno::media::kernels
