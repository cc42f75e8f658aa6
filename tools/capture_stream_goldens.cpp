// Captures the served-video goldens for the codec_golden suite
// (tests/codec_golden/stream_golden_test.cpp).  Walks the matrix in
// tests/codec_golden/stream_matrix.h -- served streams over tenants x
// capability groups x quality levels, plus encodeClip at gopLength 1/4/12
// and the matching decodes -- and prints one row per entry (name, byte
// count, CRC-32) as a C++ initializer for tests/codec_golden/
// stream_goldens.inc.
//
// The committed .inc was captured from the codec as it stood BEFORE the
// encoder rebuilt its closed-loop reference from its own coefficients and
// before the DCT pair moved into the SIMD kernel layer, so the suite proves
// both changes byte-identical.  Re-running this tool captures the CURRENT
// code -- only regenerate to bless an intentional output change (which for
// the video bytes also means a container version bump).
//
// Run: ./build/tools/capture_stream_goldens > tests/codec_golden/stream_goldens.inc
#include <cstdio>
#include <string>
#include <vector>

#include "media/crc32.h"
#include "media/kernels/kernels.h"
#include "stream_matrix.h"

int main() {
  // Goldens are dispatch-invariant; record what produced them anyway.
  std::fprintf(stderr, "capturing with SIMD dispatch level: %s\n",
               anno::media::kernels::levelName(
                   anno::media::kernels::activeLevel()));
  std::printf(
      "// Served-video goldens: byte count and CRC-32 per matrix entry,\n"
      "// captured by tools/capture_stream_goldens.cpp (see that file's\n"
      "// header for provenance).\n"
      "// clang-format off\n");
  std::printf("inline constexpr GoldenStream kGoldenStreams[] = {\n");
  anno::codec_golden::forEachGoldenEntry(
      [](const std::string& name, const std::vector<std::uint8_t>& bytes) {
        std::printf("    {\"%s\", %zuu, 0x%08Xu},\n", name.c_str(),
                    bytes.size(), anno::media::crc32(bytes));
      });
  std::printf("};\n// clang-format on\n");
  return 0;
}
