// Hand-built video payloads carrying varints that random byte flips almost
// never produce: a run marker of 0xFFFFFFFF (which a narrowing cast once
// turned into a step of -1 and a write to coeffs[-1]), DC deltas and
// coefficients beyond the int range, and a DC prediction that overflows
// int.  Every one must be rejected by media::decodeFrame with an exception,
// and must leave ClientSession::receive with ok == false -- never a crash.
// Run under -DANNO_SANITIZE=address (the `fault` label) to prove no out of
// bounds access happens before the rejection.
#include <gtest/gtest.h>

#include <climits>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "media/bitstream.h"
#include "media/clipgen.h"
#include "media/codec.h"
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

}  // namespace
}  // namespace anno::media
