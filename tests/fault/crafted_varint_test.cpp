// Hand-built video payloads carrying varints that random byte flips almost
// never produce: a run marker of 0xFFFFFFFF (which a narrowing cast once
// turned into a step of -1 and a write to coeffs[-1]), DC deltas and
// coefficients beyond the int range, and a DC prediction that overflows
// int.  Every one must be rejected by media::decodeFrame with an exception,
// and must leave ClientSession::receive with ok == false -- never a crash.
// The container-level cases declare lengths near SIZE_MAX (which wrapped a
// `position + length` bounds check) and element counts far beyond the
// payload (which asked reserve() for terabytes); each must throw before it
// reads or allocates.  Run under -DANNO_SANITIZE=address (the `fault` label)
// to prove no out of bounds access happens before the rejection.
#include <gtest/gtest.h>

#include <climits>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "media/bitstream.h"
#include "media/clipgen.h"
#include "media/codec.h"
#include "power/dvfs.h"
#include "stream/client.h"
#include "stream/mux.h"
#include "stream/server.h"

namespace anno::media {
namespace {

constexpr std::uint8_t kQuality = 75;
constexpr std::uint8_t kIntra = 0;

/// An intra frame header followed by `body`'s varints.
EncodedFrame intraFrame(void (*body)(ByteWriter&)) {
  ByteWriter w;
  w.u8(kQuality);
  w.u8(kIntra);
  body(w);
  return EncodedFrame{w.take(), /*intra=*/true};
}

/// First block: DC delta 0, then a run marker of 0xFFFFFFFF and a level.
EncodedFrame runMarkerFrame() {
  return intraFrame([](ByteWriter& w) {
    w.svarint(0);
    w.varint(0xFFFFFFFFull);
    w.svarint(7);
    w.varint(0);
  });
}

TEST(CraftedVarint, RunMarkerUnderflowThrowsFromDecodeFrame) {
  EXPECT_THROW((void)decodeFrame(runMarkerFrame(), 8, 8), std::runtime_error);
}

TEST(CraftedVarint, EveryOutOfRangeFieldThrows) {
  const auto rejects = [](const EncodedFrame& f, int width) {
    EXPECT_THROW((void)decodeFrame(f, width, 8), std::runtime_error);
  };
  // A marker one past the last slot (run 63 from position 0 reaches 64).
  rejects(intraFrame([](ByteWriter& w) {
            w.svarint(0);
            w.varint(64);
            w.svarint(1);
          }),
          8);
  // A marker whose low 32 bits look like a small step.
  rejects(intraFrame([](ByteWriter& w) {
            w.svarint(0);
            w.varint((1ull << 32) + 1);
            w.svarint(1);
          }),
          8);
  // DC delta beyond int.
  rejects(intraFrame([](ByteWriter& w) {
            w.svarint(static_cast<std::int64_t>(INT_MAX) + 1);
            w.varint(0);
          }),
          8);
  // Coefficient beyond int.
  rejects(intraFrame([](ByteWriter& w) {
            w.svarint(0);
            w.varint(1);
            w.svarint(static_cast<std::int64_t>(INT_MIN) - 1);
            w.varint(0);
          }),
          8);
  // Two in-range DC deltas whose running prediction overflows int.
  rejects(intraFrame([](ByteWriter& w) {
            w.svarint(INT_MAX);
            w.varint(0);
            w.svarint(1);
            w.varint(0);
          }),
          16);
}

TEST(CraftedVarint, InRangeExtremesStillDecode) {
  // The checks reject only what cannot be represented: a block whose last
  // coefficient sits exactly at slot 63 and a DC at INT_MAX still decode.
  const EncodedFrame f = intraFrame([](ByteWriter& w) {
    for (int block = 0; block < 3; ++block) {  // one 8x8 block per plane
      w.svarint(block == 0 ? INT_MAX : 0);
      w.varint(63);
      w.svarint(-1);
      w.varint(0);
    }
  });
  EXPECT_NO_THROW((void)decodeFrame(f, 8, 8));
}

TEST(CraftedVarint, ClientReceiveReportsUndecodableWithoutCrashing) {
  stream::MediaServer server;
  server.addClip(generatePaperClip(PaperClip::kShrek2, 0.03, 32, 24));
  const stream::ClientSession client(
      stream::ClientConfig{display::makeDevice(display::KnownDevice::kIpaq5555),
                           0, 10},
      stream::makeReferencePath());
  stream::DemuxedStream served =
      stream::demux(server.serve("shrek2", client.capabilities()));
  ASSERT_FALSE(served.video.frames.empty());
  served.video.frames.front() = runMarkerFrame();
  const std::vector<std::uint8_t> crafted = stream::mux(
      served.video,
      served.annotations.has_value() ? &*served.annotations : nullptr);

  stream::ReceivedStream got;
  ASSERT_NO_THROW(got = client.receive(crafted));
  EXPECT_FALSE(got.ok);
  EXPECT_FALSE(got.error.empty());
}

/// `bytes` with the one-byte varint at `offset` replaced by `value`.
std::vector<std::uint8_t> withVarintAt(const std::vector<std::uint8_t>& bytes,
                                       std::size_t offset,
                                       std::uint64_t value) {
  EXPECT_LT(bytes.at(offset), 0x80) << "not a one-byte varint";
  ByteWriter w;
  w.bytes(std::span(bytes).first(offset));
  w.varint(value);
  w.bytes(std::span(bytes).subspan(offset + 1));
  return w.take();
}

/// A one-frame clip whose serialized form ends in the frame's 3 bytes.
EncodedClip tinyClip() {
  EncodedClip clip;
  clip.name = "x";
  clip.width = 8;
  clip.height = 8;
  clip.fps = 30.0;
  clip.quality = 75;
  clip.frames.push_back(EncodedFrame{{1, 2, 3}, true});
  return clip;
}

constexpr std::uint64_t kWrapping[] = {SIZE_MAX, SIZE_MAX - 2, SIZE_MAX - 4};

TEST(CraftedVarint, WrappingSectionLengthThrowsFromDemux) {
  // Container magic and video section id, then a length near SIZE_MAX over
  // 32 zero bytes.  Taken as a span, the zeros would only fail parseClip's
  // magic check (std::runtime_error); the length must be rejected first.
  const std::vector<std::uint8_t> valid = stream::mux(tinyClip());
  ASSERT_NO_THROW((void)stream::demux(valid));
  for (const std::uint64_t len : kWrapping) {
    ByteWriter w;
    w.bytes(std::span(valid).first(5));
    w.varint(len);
    w.bytes(std::vector<std::uint8_t>(32, 0));
    EXPECT_THROW((void)stream::demux(w.data()), std::out_of_range) << len;
  }
}

TEST(CraftedVarint, WrappingFramePayloadLengthThrowsFromParseClip) {
  // The last frame's length varint sits just before its 3 payload bytes.
  const std::vector<std::uint8_t> clip = serializeClip(tinyClip());
  ASSERT_NO_THROW((void)parseClip(clip));
  for (const std::uint64_t len : kWrapping) {
    EXPECT_THROW((void)parseClip(withVarintAt(clip, clip.size() - 4, len)),
                 std::out_of_range)
        << len;
  }
}

TEST(CraftedVarint, WrappingDeviceNameLengthThrowsFromDecodeCapabilities) {
  // Negotiation message: magic (4 bytes), then the name length.
  stream::ClientCapabilities caps;
  caps.transfer = display::TransferFunction::linear();
  const std::vector<std::uint8_t> msg = stream::encodeCapabilities(caps);
  ASSERT_NO_THROW((void)stream::decodeCapabilities(msg));
  for (const std::uint64_t len : kWrapping) {
    EXPECT_THROW(
        (void)stream::decodeCapabilities(withVarintAt(msg, 4, len)),
        std::out_of_range)
        << len;
  }
}

TEST(CraftedVarint, WrappingSketchRleLengthThrows) {
  // Sketch payload: scene count, RLE length, RLE bytes.
  const std::vector<std::uint8_t> payload =
      core::SketchTrack{{core::SceneSketch{}}}.encode();
  ASSERT_NO_THROW((void)core::SketchTrack::decode(payload));
  for (const std::uint64_t len : kWrapping) {
    EXPECT_THROW(
        (void)core::SketchTrack::decode(withVarintAt(payload, 1, len)),
        std::out_of_range)
        << len;
  }
}

TEST(CraftedVarint, CountBeyondPayloadThrowsBeforeReserving) {
  // Every complexity delta and every clip frame costs at least one byte,
  // so a count above the bytes left is rejected before reserve() -- these
  // counts would otherwise ask for terabytes.
  for (const std::uint64_t n : {std::uint64_t{3}, std::uint64_t{1} << 40,
                                std::uint64_t{SIZE_MAX}}) {
    ByteWriter w;
    w.varint(n);
    w.svarint(1);
    w.svarint(1);
    EXPECT_THROW((void)power::ComplexityTrack::decode(w.data()),
                 std::runtime_error)
        << n;
    EncodedClip empty = tinyClip();
    empty.frames.clear();
    const std::vector<std::uint8_t> clip = serializeClip(empty);
    EXPECT_THROW((void)parseClip(withVarintAt(clip, clip.size() - 1, n)),
                 std::runtime_error)
        << n;
  }
  ByteWriter exact;
  exact.varint(2);
  exact.svarint(1);
  exact.svarint(1);
  EXPECT_EQ(power::ComplexityTrack::decode(exact.data()).frameMegacycles.size(),
            2u);
}

}  // namespace
}  // namespace anno::media
