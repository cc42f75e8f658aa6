#include "media/codec.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

#include "media/bitstream.h"
#include "media/dct.h"
#include "media/kernels/kernels.h"

namespace anno::media {
namespace {

// JPEG Annex K luminance quantization matrix; we use it for all three
// planes (we code full-resolution chroma, so the luma table is fine).
constexpr int kBaseQuant[64] = {
    16, 11, 10, 16, 24,  40,  51,  61,   //
    12, 12, 14, 19, 26,  58,  60,  55,   //
    14, 13, 16, 24, 40,  57,  69,  56,   //
    14, 17, 22, 29, 51,  87,  80,  62,   //
    18, 22, 37, 56, 68,  109, 103, 77,   //
    24, 35, 55, 64, 81,  104, 113, 92,   //
    49, 64, 78, 87, 103, 121, 120, 101,  //
    72, 92, 95, 98, 112, 100, 103, 99};

constexpr std::uint8_t kFrameIntra = 0;
constexpr std::uint8_t kFrameInter = 1;
constexpr std::uint8_t kBlockSkip = 0;
constexpr std::uint8_t kBlockDelta = 1;

/// The quantizer of one quality, in zigzag scan order: for scan position
/// i, the raster slot of its coefficient and its step, the JPEG-style
/// quality scaling of the base matrix.  Encoder and decoder read both from
/// here, so they quantize and dequantize with the same doubles.
struct ZigzagQuant {
  std::array<int, 64> slot;
  std::array<double, 64> step;
};

ZigzagQuant zigzagQuant(int quality) {
  if (quality < 1 || quality > 100) {
    throw std::invalid_argument("codec: quality must be in [1,100]");
  }
  const int scale = quality < 50 ? 5000 / quality : 200 - 2 * quality;
  const auto& zz = zigzagOrder();
  ZigzagQuant zq{};
  for (int i = 0; i < 64; ++i) {
    zq.slot[i] = zz[i];
    zq.step[i] = std::clamp((kBaseQuant[zz[i]] * scale + 50) / 100, 1, 255);
  }
  return zq;
}

int blocksAcross(int dim) { return (dim + 7) / 8; }

using Planes = std::array<std::vector<double>, 3>;

/// RGB -> YCbCr planes through the kernel layer's colour pair.
Planes toPlanes(const Image& frame) {
  Planes planes;
  for (auto& p : planes) {
    p.resize(frame.pixelCount());
  }
  auto src = frame.pixels();
  kernels::active().rgbToPlanes(src.data(), src.size(), planes[0].data(),
                                planes[1].data(), planes[2].data());
  return planes;
}

Image fromPlanes(const Planes& planes, int width, int height) {
  Image img(width, height);
  auto dst = img.pixels();
  kernels::active().planesToRgb(planes[0].data(), planes[1].data(),
                                planes[2].data(), dst.size(), dst.data());
  return img;
}

/// Extracts the 8x8 block at block coordinates (bx,by) from `plane`,
/// replicating edge samples for partial blocks.  `offset` is subtracted
/// from every sample (128 for intra blocks, 0 for residuals).
Block8x8 fetchBlock(const std::vector<double>& plane, int width, int height,
                    int bx, int by, double offset) {
  Block8x8 blk{};
  for (int y = 0; y < 8; ++y) {
    const int sy = std::min(by * 8 + y, height - 1);
    for (int x = 0; x < 8; ++x) {
      const int sx = std::min(bx * 8 + x, width - 1);
      blk[y * 8 + x] =
          plane[static_cast<std::size_t>(sy) * width + sx] - offset;
    }
  }
  return blk;
}

/// The part of block (bx,by) that lies inside a width x height plane: the
/// index of its top-left sample and its clipped column and row counts.
struct BlockExtent {
  std::size_t origin;
  int cols;
  int rows;
};

BlockExtent extentOf(int width, int height, int bx, int by) {
  return BlockExtent{
      static_cast<std::size_t>(by) * 8 * static_cast<std::size_t>(width) +
          static_cast<std::size_t>(bx) * 8,
      std::min(8, width - bx * 8), std::min(8, height - by * 8)};
}

/// Writes the block into the plane, adding `offset` back; pixels outside
/// the image are dropped.
void storeBlock(const Block8x8& blk, std::vector<double>& plane, int width,
                int height, int bx, int by, double offset) {
  const BlockExtent e = extentOf(width, height, bx, by);
  double* dst = plane.data() + e.origin;
  for (int y = 0; y < e.rows; ++y, dst += width) {
    for (int x = 0; x < e.cols; ++x) dst[x] = blk[y * 8 + x] + offset;
  }
}

/// Adds a residual block onto the reference plane content.
void addBlock(const Block8x8& residual, const std::vector<double>& ref,
              std::vector<double>& plane, int width, int height, int bx,
              int by) {
  const BlockExtent e = extentOf(width, height, bx, by);
  const double* src = ref.data() + e.origin;
  double* dst = plane.data() + e.origin;
  for (int y = 0; y < e.rows; ++y, src += width, dst += width) {
    for (int x = 0; x < e.cols; ++x) dst[x] = src[x] + residual[y * 8 + x];
  }
}

void copyBlock(const std::vector<double>& ref, std::vector<double>& plane,
               int width, int height, int bx, int by) {
  const BlockExtent e = extentOf(width, height, bx, by);
  const double* src = ref.data() + e.origin;
  double* dst = plane.data() + e.origin;
  for (int y = 0; y < e.rows; ++y, src += width, dst += width) {
    std::copy_n(src, e.cols, dst);
  }
}

/// Mean absolute difference of a block position between two planes.
double blockMad(const std::vector<double>& a, const std::vector<double>& b,
                int width, int height, int bx, int by) {
  const BlockExtent e = extentOf(width, height, bx, by);
  const double* pa = a.data() + e.origin;
  const double* pb = b.data() + e.origin;
  double sum = 0.0;
  for (int y = 0; y < e.rows; ++y, pa += width, pb += width) {
    for (int x = 0; x < e.cols; ++x) sum += std::abs(pa[x] - pb[x]);
  }
  const int n = e.rows * e.cols;
  return n > 0 ? sum / n : 0.0;
}

/// Quantizes a DCT block into zigzag-ordered integer coefficients.
void quantizeBlock(const Block8x8& freq, const ZigzagQuant& zq,
                   int (&coeffs)[64]) {
  for (int i = 0; i < 64; ++i) {
    coeffs[i] = static_cast<int>(std::lround(freq[zq.slot[i]] / zq.step[i]));
  }
}

/// Dequantizes zigzag-ordered coefficients for the encoder's closed-loop
/// reference: slot i gets double(coeffs[i]) * step, the product decodeBlock
/// writes, so both sides see identical doubles.
Block8x8 dequantizeBlock(const int (&coeffs)[64], const ZigzagQuant& zq) {
  Block8x8 freq{};
  for (int i = 0; i < 64; ++i) {
    freq[zq.slot[i]] = static_cast<double>(coeffs[i]) * zq.step[i];
  }
  return freq;
}

/// Encodes one block's zigzagged coefficients: DC delta then (run,level)
/// pairs terminated by run=0 marker.
void encodeBlock(const int (&coeffs)[64], int& dcPred, ByteWriter& w) {
  w.svarint(coeffs[0] - dcPred);
  dcPred = coeffs[0];
  int run = 0;
  for (int i = 1; i < 64; ++i) {
    if (coeffs[i] == 0) {
      ++run;
      continue;
    }
    w.varint(static_cast<std::uint64_t>(run) + 1);  // 1-based: 0 = EOB
    w.svarint(coeffs[i]);
    run = 0;
  }
  w.varint(0);  // end of block
}

/// Throws the decoder's malformed-stream error.  Out of line and cold, so
/// the checks in decodeBlock cost a compare and a never-taken branch.
[[noreturn, gnu::cold, gnu::noinline]] void throwMalformed(const char* what) {
  throw std::runtime_error(std::string("codec: ") + what);
}

constexpr bool fitsInt(std::int64_t v) {
  return v >= std::numeric_limits<int>::min() &&
         v <= std::numeric_limits<int>::max();
}

/// Entropy-decodes one block straight into its dequantized frequency
/// block: each coded coefficient c lands in its raster slot as
/// double(c) * q, and every other slot is +0.0 -- exactly what
/// dequantizeBlock makes of the same coefficients.  Every varint is
/// range-checked before it is narrowed or used as a step.
void decodeBlock(const ZigzagQuant& zq, int& dcPred, ByteReader& r,
                 Block8x8& freq) {
  freq.fill(0.0);
  const std::int64_t dcDelta = r.svarint();
  if (!fitsInt(dcDelta)) throwMalformed("DC delta out of range");
  // Both operands fit in int, so the 64-bit sum cannot overflow; the sum
  // itself must fit too.
  const std::int64_t dc = dcDelta + dcPred;
  if (!fitsInt(dc)) throwMalformed("DC prediction out of range");
  dcPred = static_cast<int>(dc);
  freq[zq.slot[0]] = static_cast<double>(dcPred) * zq.step[0];
  int pos = 0;
  for (;;) {
    const std::uint64_t marker = r.varint();
    if (marker == 0) break;  // EOB
    // marker = run+1 -> advance past zeros; it may at most reach slot 63.
    if (marker > static_cast<std::uint64_t>(63 - pos)) {
      throwMalformed("coefficient overrun");
    }
    pos += static_cast<int>(marker);
    const std::int64_t c = r.svarint();
    if (!fitsInt(c)) throwMalformed("coefficient out of range");
    freq[zq.slot[pos]] = static_cast<double>(c) * zq.step[pos];
  }
}

void checkFrameGeometry(const Image& frame) {
  if (frame.empty()) throw std::invalid_argument("codec: empty frame");
}

/// Starts a frame payload: quality byte, frame type byte.
ByteWriter frameHeader(const CodecConfig& cfg, std::uint8_t frameType) {
  ByteWriter out;
  out.u8(static_cast<std::uint8_t>(cfg.quality));
  out.u8(frameType);
  return out;
}

/// Sizes `recon` (when non-null) to hold a w x h reconstruction.
void prepareRecon(Planes* recon, int w, int h) {
  if (recon == nullptr) return;
  for (auto& p : *recon) p.resize(static_cast<std::size_t>(w) * h);
}

/// Intra-codes every block of `planes`.  When `recon` is non-null it
/// receives the planes the decoder will rebuild, computed from the same
/// quantized coefficients the bytes carry.
void encodeIntraPlanes(const Planes& planes, int w, int h,
                       const ZigzagQuant& zq, ByteWriter& out,
                       Planes* recon) {
  prepareRecon(recon, w, h);
  const int bw = blocksAcross(w);
  const int bh = blocksAcross(h);
  for (int p = 0; p < 3; ++p) {
    int dcPred = 0;
    for (int by = 0; by < bh; ++by) {
      for (int bx = 0; bx < bw; ++bx) {
        int coeffs[64];
        quantizeBlock(forwardDct(fetchBlock(planes[p], w, h, bx, by, 128.0)),
                      zq, coeffs);
        encodeBlock(coeffs, dcPred, out);
        if (recon != nullptr) {
          storeBlock(inverseDct(dequantizeBlock(coeffs, zq)), (*recon)[p],
                     w, h, bx, by, 128.0);
        }
      }
    }
  }
}

/// Inter-codes `cur` against the reference planes `ref` (SKIP or DELTA per
/// block); `recon` as for encodeIntraPlanes.
void encodeInterPlanes(const Planes& cur, const Planes& ref, int w, int h,
                       const ZigzagQuant& zq, double skipThreshold,
                       ByteWriter& out, Planes* recon) {
  prepareRecon(recon, w, h);
  const int bw = blocksAcross(w);
  const int bh = blocksAcross(h);
  for (int p = 0; p < 3; ++p) {
    int dcPred = 0;
    for (int by = 0; by < bh; ++by) {
      for (int bx = 0; bx < bw; ++bx) {
        const double mad = blockMad(cur[p], ref[p], w, h, bx, by);
        if (mad < skipThreshold) {
          out.u8(kBlockSkip);
          if (recon != nullptr) copyBlock(ref[p], (*recon)[p], w, h, bx, by);
          continue;
        }
        out.u8(kBlockDelta);
        // Residual block: cur - ref (no 128 offset on residuals).
        Block8x8 residual = fetchBlock(cur[p], w, h, bx, by, 0.0);
        const Block8x8 refBlk = fetchBlock(ref[p], w, h, bx, by, 0.0);
        for (int i = 0; i < 64; ++i) residual[i] -= refBlk[i];
        int coeffs[64];
        quantizeBlock(forwardDct(residual), zq, coeffs);
        encodeBlock(coeffs, dcPred, out);
        if (recon != nullptr) {
          addBlock(inverseDct(dequantizeBlock(coeffs, zq)), ref[p],
                   (*recon)[p], w, h, bx, by);
        }
      }
    }
  }
}

}  // namespace

EncodedFrame encodeFrame(const Image& frame, const CodecConfig& cfg) {
  checkFrameGeometry(frame);
  const ZigzagQuant zq = zigzagQuant(cfg.quality);
  ByteWriter out = frameHeader(cfg, kFrameIntra);
  encodeIntraPlanes(toPlanes(frame), frame.width(), frame.height(), zq,
                    out, nullptr);
  return EncodedFrame{out.take(), /*intra=*/true};
}

EncodedFrame encodePFrame(const Image& frame, const Image& reference,
                          const CodecConfig& cfg) {
  checkFrameGeometry(frame);
  if (reference.width() != frame.width() ||
      reference.height() != frame.height()) {
    throw std::invalid_argument("encodePFrame: reference geometry mismatch");
  }
  const ZigzagQuant zq = zigzagQuant(cfg.quality);
  ByteWriter out = frameHeader(cfg, kFrameInter);
  encodeInterPlanes(toPlanes(frame), toPlanes(reference), frame.width(),
                    frame.height(), zq, cfg.skipThreshold, out, nullptr);
  return EncodedFrame{out.take(), /*intra=*/false};
}

Image decodeFrame(const EncodedFrame& frame, int width, int height,
                  const Image* reference) {
  if (width <= 0 || height <= 0) {
    throw std::invalid_argument("decodeFrame: bad dimensions");
  }
  ByteReader r(frame.bytes);
  const int quality = r.u8();
  const std::uint8_t frameType = r.u8();
  const ZigzagQuant zq = zigzagQuant(quality == 0 ? 1 : quality);

  const bool inter = frameType == kFrameInter;
  if (frameType != kFrameIntra && !inter) {
    throw std::runtime_error("decodeFrame: unknown frame type");
  }
  Planes ref;
  if (inter) {
    if (reference == nullptr) {
      throw std::runtime_error("decodeFrame: P frame needs a reference");
    }
    if (reference->width() != width || reference->height() != height) {
      throw std::invalid_argument("decodeFrame: reference geometry mismatch");
    }
    ref = toPlanes(*reference);
  }

  Planes planes;
  for (auto& p : planes) {
    p.assign(static_cast<std::size_t>(width) * height, 0.0);
  }
  void (*const inverseDct8x8)(const double*, double*) =
      kernels::active().inverseDct8x8;
  Block8x8 blk;
  const int bw = blocksAcross(width);
  const int bh = blocksAcross(height);
  for (int p = 0; p < 3; ++p) {
    int dcPred = 0;
    for (int by = 0; by < bh; ++by) {
      for (int bx = 0; bx < bw; ++bx) {
        if (!inter) {
          decodeBlock(zq, dcPred, r, blk);
          inverseDct8x8(blk.data(), blk.data());
          storeBlock(blk, planes[p], width, height, bx, by, 128.0);
          continue;
        }
        const std::uint8_t mode = r.u8();
        if (mode == kBlockSkip) {
          copyBlock(ref[p], planes[p], width, height, bx, by);
        } else if (mode == kBlockDelta) {
          decodeBlock(zq, dcPred, r, blk);
          inverseDct8x8(blk.data(), blk.data());
          addBlock(blk, ref[p], planes[p], width, height, bx, by);
        } else {
          throw std::runtime_error("decodeFrame: unknown block mode");
        }
      }
    }
  }
  return fromPlanes(planes, width, height);
}

EncodedClip encodeClip(const VideoClip& clip, const CodecConfig& cfg) {
  validateClip(clip);
  checkFrameGeometry(clip.frames.front());
  if (cfg.gopLength < 1) {
    throw std::invalid_argument("encodeClip: gopLength must be >= 1");
  }
  EncodedClip out;
  out.name = clip.name;
  out.width = clip.width();
  out.height = clip.height();
  out.fps = clip.fps;
  out.quality = cfg.quality;
  out.frames.reserve(clip.frames.size());

  // Closed-loop encoding: P frames reference the previous DECODED frame so
  // the decoder never drifts.  The encoder rebuilds that frame itself, from
  // the quantized coefficients it has just coded (the decoder's exact
  // dequantize + inverse DCT + colour steps), and only when a P frame
  // follows -- intra-only streams never reconstruct at all.
  const ZigzagQuant zq = zigzagQuant(cfg.quality);
  const auto gop = static_cast<std::size_t>(cfg.gopLength);
  const int w = out.width;
  const int h = out.height;
  Planes ref;    // planes of the previous decoded frame
  Planes recon;  // this frame's reconstruction, while one is needed
  for (std::size_t i = 0; i < clip.frames.size(); ++i) {
    const bool intra = i % gop == 0;
    const bool nextInter = i + 1 < clip.frames.size() && (i + 1) % gop != 0;
    Planes* reconOut = nextInter ? &recon : nullptr;
    const Planes cur = toPlanes(clip.frames[i]);
    ByteWriter bytes = frameHeader(cfg, intra ? kFrameIntra : kFrameInter);
    if (intra) {
      encodeIntraPlanes(cur, w, h, zq, bytes, reconOut);
    } else {
      encodeInterPlanes(cur, ref, w, h, zq, cfg.skipThreshold, bytes,
                        reconOut);
    }
    out.frames.push_back(EncodedFrame{bytes.take(), intra});
    // The decoder holds the reference as 8-bit RGB, so round-trip through
    // it before the next frame measures and codes against it.
    if (nextInter) ref = toPlanes(fromPlanes(recon, w, h));
  }
  return out;
}

VideoClip decodeClip(const EncodedClip& clip) {
  VideoClip out;
  out.name = clip.name;
  out.fps = clip.fps;
  out.frames.reserve(clip.frames.size());
  for (const EncodedFrame& f : clip.frames) {
    const Image* ref = out.frames.empty() ? nullptr : &out.frames.back();
    out.frames.push_back(decodeFrame(f, clip.width, clip.height, ref));
  }
  return out;
}

namespace {
constexpr std::uint32_t kClipMagic = 0x30564100;  // "\0AV0"
}

std::vector<std::uint8_t> serializeClip(const EncodedClip& clip) {
  ByteWriter w;
  w.u32(kClipMagic);
  w.varint(clip.name.size());
  w.bytes(std::span(reinterpret_cast<const std::uint8_t*>(clip.name.data()),
                    clip.name.size()));
  w.varint(static_cast<std::uint64_t>(clip.width));
  w.varint(static_cast<std::uint64_t>(clip.height));
  w.varint(static_cast<std::uint64_t>(std::lround(clip.fps * 1000.0)));
  w.varint(static_cast<std::uint64_t>(clip.quality));
  w.varint(clip.frames.size());
  for (const EncodedFrame& f : clip.frames) {
    w.u8(f.intra ? 1 : 0);
    w.varint(f.bytes.size());
    w.bytes(f.bytes);
  }
  return w.take();
}

EncodedClip parseClip(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  if (r.u32() != kClipMagic) {
    throw std::runtime_error("parseClip: bad magic");
  }
  EncodedClip clip;
  const std::size_t nameLen = r.varint();
  auto nameBytes = r.bytes(nameLen);
  clip.name.assign(reinterpret_cast<const char*>(nameBytes.data()), nameLen);
  clip.width = static_cast<int>(r.varint());
  clip.height = static_cast<int>(r.varint());
  clip.fps = static_cast<double>(r.varint()) / 1000.0;
  clip.quality = static_cast<int>(r.varint());
  const std::size_t nframes = r.varint();
  // Each frame costs at least its intra flag and length bytes; a larger
  // count is corrupt.
  if (nframes > r.remaining()) {
    throw std::runtime_error("parseClip: frame count exceeds payload");
  }
  clip.frames.reserve(nframes);
  for (std::size_t i = 0; i < nframes; ++i) {
    EncodedFrame f;
    f.intra = r.u8() != 0;
    const std::size_t len = r.varint();
    auto payload = r.bytes(len);
    f.bytes.assign(payload.begin(), payload.end());
    clip.frames.push_back(std::move(f));
  }
  return clip;
}

}  // namespace anno::media
