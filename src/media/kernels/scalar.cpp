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
  double tmp[64];
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

}  // namespace

const KernelTable& scalarTable() noexcept {
  static constexpr KernelTable kTable{
      Level::kScalar,        profileRgbScalar,    profileGrayScalar,
      maxChannelHistogramScalar, lumaPlaneScalar, histAccumulateScalar,
      emdNumeratorScalar,    scalePixelsScalar,   countClippedScalar,
      tailBudgetLevelScalar, lowPointScalar,      highPointScalar,
      detail::forwardDct8x8Reference, detail::inverseDct8x8Reference,
  };
  return kTable;
}

}  // namespace anno::media::kernels
