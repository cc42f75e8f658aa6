#include "media/dct.h"

#include <algorithm>

#include "media/kernels/kernels.h"

namespace anno::media {

// The transform pair lives in the SIMD kernel layer, where every dispatch
// level is bit-identical to the scalar reference loops.
Block8x8 forwardDct(const Block8x8& spatial) {
  Block8x8 out{};
  kernels::active().forwardDct8x8(spatial.data(), out.data());
  return out;
}

Block8x8 inverseDct(const Block8x8& freq) {
  Block8x8 out{};
  kernels::active().inverseDct8x8(freq.data(), out.data());
  return out;
}

const std::array<int, 64>& zigzagOrder() {
  static const std::array<int, 64> order = [] {
    std::array<int, 64> z{};
    int idx = 0;
    for (int s = 0; s < 15; ++s) {
      if (s % 2 == 0) {  // up-right
        for (int y = std::min(s, 7); y >= 0 && s - y <= 7; --y) {
          z[idx++] = y * 8 + (s - y);
        }
      } else {  // down-left
        for (int x = std::min(s, 7); x >= 0 && s - x <= 7; --x) {
          z[idx++] = (s - x) * 8 + x;
        }
      }
    }
    return z;
  }();
  return order;
}

}  // namespace anno::media
