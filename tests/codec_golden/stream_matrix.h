// The served-video golden matrix, shared by the capture tool
// (tools/capture_stream_goldens.cpp) and the replay test
// (tests/codec_golden/stream_golden_test.cpp) so both walk the identical
// entries in the identical order.
//
// Three groups of entries, each a name plus the bytes it pins:
//   serve/...   MediaServer::serve streams (compensate + encode + mux) over
//               the tenant matrix {detector x granularity x credits x
//               quality ladder} x capability groups x every offered
//               quality level -- the bytes a fleet client receives;
//   encode/...  serializeClip(encodeClip(clip)) for every paper clip at
//               gopLength 1, 4 and 12, at a block-aligned and a ragged frame
//               size -- the P-frame closed loop (the encoder's own
//               reconstruction of its reference) is pinned by these bytes;
//   decode/...  the RGB pixels decodeClip() rebuilds from those encodings,
//               pinning the decoder's dequantize + inverse DCT + colour path.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/track_cache.h"
#include "display/device.h"
#include "media/clipgen.h"
#include "media/codec.h"
#include "stream/server.h"

namespace anno::codec_golden {

/// One pinned entry: byte count and CRC-32 of the entry's bytes.
struct GoldenStream {
  const char* name;
  std::size_t bytes;
  std::uint32_t crc;
};

/// The tenant matrix {detector x granularity x credits x ladder}.
inline std::vector<core::AnnotatorConfig> tenantMatrix() {
  std::vector<core::AnnotatorConfig> tenants;
  for (core::SceneDetector det : {core::SceneDetector::kMaxLuma,
                                  core::SceneDetector::kHistogramEmd}) {
    for (core::Granularity gran :
         {core::Granularity::kPerScene, core::Granularity::kPerFrame}) {
      for (bool credits : {false, true}) {
        for (int ladder = 0; ladder < 2; ++ladder) {
          core::AnnotatorConfig cfg;
          cfg.detector = det;
          cfg.granularity = gran;
          cfg.protectCredits = credits;
          if (ladder == 1) cfg.qualityLevels = {0.0, 0.1, 0.2};
          tenants.push_back(std::move(cfg));
        }
      }
    }
  }
  return tenants;
}

/// A capability group: one distinct negotiation apart from the quality
/// index (device transfer, display technology, backlight floor).
struct CapabilityGroup {
  std::string name;
  stream::ClientCapabilities caps;
};

inline std::vector<CapabilityGroup> capabilityGroups() {
  const auto lcd = [](display::KnownDevice d, int floor) {
    const display::DeviceModel m = display::makeDevice(d);
    stream::ClientCapabilities caps{m.name, m.transfer, 0};
    caps.minBacklightLevel = floor;
    return caps;
  };
  std::vector<CapabilityGroup> groups;
  groups.push_back({"ipaq3650", lcd(display::KnownDevice::kIpaq3650, 10)});
  groups.push_back({"zaurus", lcd(display::KnownDevice::kZaurusSl5600, 10)});
  groups.push_back(
      {"ipaq5555-floor40", lcd(display::KnownDevice::kIpaq5555, 40)});
  CapabilityGroup emissive{"ipaq5555-emissive",
                           lcd(display::KnownDevice::kIpaq5555, 10)};
  emissive.caps.technology = stream::DisplayTechnology::kEmissive;
  groups.push_back(std::move(emissive));
  return groups;
}

/// Calls visit(name, bytes) for every matrix entry, in a fixed order.
template <typename Visit>
void forEachGoldenEntry(Visit&& visit) {
  // Served streams through a TrackCache-backed server, as the fleet serves.
  core::TrackCache cache;
  stream::MediaServer server;
  server.attachTrackCache(cache);
  const media::PaperClip servedClips[] = {media::PaperClip::kCatwoman,
                                          media::PaperClip::kOfficeXp};
  for (media::PaperClip clip : servedClips) {
    server.addClip(media::generatePaperClip(clip, 0.02, 32, 24));
  }
  const std::vector<core::AnnotatorConfig> tenants = tenantMatrix();
  for (media::PaperClip clip : servedClips) {
    const std::string clipName = media::paperClipName(clip);
    for (std::size_t t = 0; t < tenants.size(); ++t) {
      for (const CapabilityGroup& group : capabilityGroups()) {
        for (std::size_t q = 0; q < tenants[t].qualityLevels.size(); ++q) {
          stream::ClientCapabilities caps = group.caps;
          caps.qualityIndex = q;
          visit("serve/" + clipName + "/t" + std::to_string(t) + "/" +
                    group.name + "/q" + std::to_string(q),
                server.serve(clipName, caps, tenants[t]));
        }
      }
    }
  }

  // The codec alone, intra-only and with P frames between I frames.
  for (media::PaperClip clip : media::allPaperClips()) {
    for (const auto& [w, h] : {std::pair{32, 24}, std::pair{30, 22}}) {
      const media::VideoClip source =
          media::generatePaperClip(clip, 0.02, w, h);
      for (int gop : {1, 4, 12}) {
        media::CodecConfig cfg;
        cfg.gopLength = gop;
        const media::EncodedClip enc = media::encodeClip(source, cfg);
        const std::string tag = media::paperClipName(clip) + "/" +
                                std::to_string(w) + "x" + std::to_string(h) +
                                "/gop" + std::to_string(gop);
        visit("encode/" + tag, media::serializeClip(enc));
        std::vector<std::uint8_t> pixels;
        for (const media::Image& frame : media::decodeClip(enc).frames) {
          for (const media::Rgb8& p : frame.pixels()) {
            pixels.insert(pixels.end(), {p.r, p.g, p.b});
          }
        }
        visit("decode/" + tag, pixels);
      }
    }
  }
}

}  // namespace anno::codec_golden
