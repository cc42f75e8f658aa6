// Toy intra-only block-DCT video codec ("AV0").
//
// Substrate for the streaming experiments: the paper streams MPEG clips of
// "a few megabytes" and embeds annotations whose RLE-compressed size is
// "in the order of hundreds of bytes".  To measure that ratio honestly we
// need a real (if simple) compressed representation of the video, plus a
// decode path that exercises the client CPU like a software MPEG player.
//
// Design: RGB -> BT.601 YCbCr, per-plane 8x8 DCT, uniform quantization with
// a JPEG-style matrix scaled by a quality factor, zigzag scan, DC prediction
// across blocks, and (run,level) entropy coding with LEB128 varints.
//
// Two frame types, MPEG-style:
//   I (intra):  blocks coded standalone; every GOP starts with one.
//   P (inter):  per-block conditional replenishment against the previous
//               decoded frame -- SKIP (copy reference) or DELTA (DCT of the
//               residual).  Dark/static scenes produce tiny P frames, which
//               is exactly the size variation the annotation-driven DVFS and
//               NIC-scheduling experiments exploit.
//
// Closed loop: a P frame is coded against the frame the DECODER will hold,
// not the source.  encodeClip builds that reference inside the encoder from
// the quantized coefficients it has just coded -- the same dequantized
// doubles (double(c) * q in each coefficient's zigzag slot, +0.0
// elsewhere), inverse DCT and colour conversion the decoder runs, so it is
// bit-exact by construction -- and only when the next frame is a P frame.
// Intra-only clips (gopLength = 1, the serving default) never reconstruct
// at all, and encodeClip never calls decodeFrame.
//
// Decode: the entropy decoder writes each coefficient straight into its
// dequantized slot of the block (no integer coefficient array and no
// separate dequantize pass), range-checking every varint first; the
// inverse DCT runs in place and skips all-zero rows; the colour step runs
// through media::kernels' planesToRgb.  All three are bit-exact against the
// plain loops, at every SIMD dispatch level.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "media/image.h"
#include "media/video.h"

namespace anno::media {

/// Codec tuning.  quality in [1,100]; higher = larger, more faithful.
/// gopLength = 1 forces intra-only (every frame independently decodable);
/// larger values insert P frames between I frames.
struct CodecConfig {
  int quality = 75;
  int gopLength = 1;
  /// Mean-abs-difference (per pixel) below which a P block is SKIPped.
  double skipThreshold = 1.5;
};

/// One compressed frame.
struct EncodedFrame {
  std::vector<std::uint8_t> bytes;
  bool intra = true;

  [[nodiscard]] std::size_t sizeBytes() const noexcept { return bytes.size(); }
};

/// A compressed clip: header metadata plus per-frame payloads.
struct EncodedClip {
  std::string name;
  int width = 0;
  int height = 0;
  double fps = 0.0;
  int quality = 75;
  std::vector<EncodedFrame> frames;

  [[nodiscard]] std::size_t totalBytes() const noexcept {
    std::size_t n = 0;
    for (const EncodedFrame& f : frames) n += f.sizeBytes();
    return n;
  }
};

/// Encodes one RGB frame as an I frame.
[[nodiscard]] EncodedFrame encodeFrame(const Image& frame,
                                       const CodecConfig& cfg = {});

/// Encodes one RGB frame as a P frame against `reference` (the previous
/// DECODED frame, so encoder and decoder stay in sync).  encodeClip builds
/// that reference itself; this entry point takes it from the caller.
[[nodiscard]] EncodedFrame encodePFrame(const Image& frame,
                                        const Image& reference,
                                        const CodecConfig& cfg = {});

/// Decodes one frame; dimensions must match the encoder's.  `reference`
/// must be the previous decoded frame for P frames (may be null for I
/// frames).  Throws std::runtime_error on malformed payloads or a missing
/// reference.
[[nodiscard]] Image decodeFrame(const EncodedFrame& frame, int width,
                                int height, const Image* reference = nullptr);

/// Encodes a whole clip.
[[nodiscard]] EncodedClip encodeClip(const VideoClip& clip,
                                     const CodecConfig& cfg = {});

/// Decodes a whole clip.
[[nodiscard]] VideoClip decodeClip(const EncodedClip& clip);

/// Serializes an EncodedClip into one flat container byte stream
/// (magic, header, frame table, payloads) and parses it back.
[[nodiscard]] std::vector<std::uint8_t> serializeClip(const EncodedClip& clip);
[[nodiscard]] EncodedClip parseClip(std::span<const std::uint8_t> bytes);

}  // namespace anno::media
