// Served-video golden regression: the bytes a client receives, the bytes
// encodeClip produces with and without P frames, and the pixels decodeClip
// rebuilds must match the CRC-32 table captured by
// tools/capture_stream_goldens.cpp, at EVERY available SIMD dispatch level.
// The matrix itself lives in stream_matrix.h, shared with the capture tool.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "media/crc32.h"
#include "media/kernels/kernels.h"
#include "stream_matrix.h"

namespace anno::codec_golden {
namespace {

#include "stream_goldens.inc"

TEST(CodecGolden, ServedAndEncodedBytesMatchGoldensAtEveryLevel) {
  for (const media::kernels::Level level :
       media::kernels::availableLevels()) {
    SCOPED_TRACE(media::kernels::levelName(level));
    media::kernels::ScopedLevel guard(level);
    std::size_t next = 0;
    forEachGoldenEntry([&](const std::string& name,
                           const std::vector<std::uint8_t>& bytes) {
      ASSERT_LT(next, std::size(kGoldenStreams)) << name;
      const GoldenStream& golden = kGoldenStreams[next++];
      EXPECT_EQ(golden.name, name);
      EXPECT_EQ(golden.bytes, bytes.size()) << name;
      EXPECT_EQ(golden.crc, media::crc32(bytes)) << name;
    });
    EXPECT_EQ(next, std::size(kGoldenStreams))
        << "matrix and goldens out of sync";
  }
}

}  // namespace
}  // namespace anno::codec_golden
