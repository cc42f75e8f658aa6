#include "stream/proxy.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/sketch.h"
#include "media/clipgen.h"
#include "media/crc32.h"
#include "power/dvfs.h"
#include "stream/mux.h"
#include "stream/server.h"

namespace anno::stream {
namespace {

media::VideoClip testClip() {
  return media::generatePaperClip(media::PaperClip::kIRobot, 0.03, 32, 24);
}

ClientCapabilities ipaqCaps(std::size_t quality = 2) {
  const display::DeviceModel d =
      display::makeDevice(display::KnownDevice::kIpaq5555);
  return ClientCapabilities{d.name, d.transfer, quality};
}

TEST(OnlineAnnotator, MatchesOfflineAnnotator) {
  // The causal annotator must produce exactly the offline scene partition
  // and safe-luma values ("either the proxy or the server node suffices").
  const media::VideoClip clip = testClip();
  const core::AnnotatorConfig cfg;
  const core::AnnotationTrack offline = core::annotateClip(clip, cfg);

  OnlineAnnotator online(cfg);
  std::vector<core::SceneAnnotation> scenes;
  for (const media::Image& f : clip.frames) {
    if (auto s = online.push(media::profileFrame(f))) {
      scenes.push_back(*s);
    }
  }
  if (auto s = online.flush()) scenes.push_back(*s);

  ASSERT_EQ(scenes.size(), offline.scenes.size());
  for (std::size_t i = 0; i < scenes.size(); ++i) {
    EXPECT_EQ(scenes[i], offline.scenes[i]) << "scene " << i;
  }
}

TEST(OnlineAnnotator, PerFrameModeEmitsEveryFrame) {
  core::AnnotatorConfig cfg;
  cfg.granularity = core::Granularity::kPerFrame;
  OnlineAnnotator online(cfg);
  const media::VideoClip clip = testClip();
  std::size_t emitted = 0;
  for (const media::Image& f : clip.frames) {
    if (online.push(media::profileFrame(f))) ++emitted;
  }
  if (online.flush()) ++emitted;
  EXPECT_EQ(emitted, clip.frames.size());
}

TEST(OnlineAnnotator, LatencyBoundForcesCuts) {
  core::AnnotatorConfig cfg;
  OnlineAnnotator bounded(cfg, 10);
  // A long constant scene: unbounded mode would hold it open forever;
  // bounded mode must emit a chunk every 10 frames.
  media::FrameStats stats;
  stats.luminance.maxLuma = 120;
  stats.histogram.add(120, 100);
  std::vector<core::SceneAnnotation> scenes;
  for (int i = 0; i < 35; ++i) {
    if (auto s = bounded.push(stats)) scenes.push_back(*s);
  }
  if (auto s = bounded.flush()) scenes.push_back(*s);
  ASSERT_GE(scenes.size(), 3u);
  for (const core::SceneAnnotation& s : scenes) {
    EXPECT_LE(s.span.frameCount, 10u);
  }
  // Chunks of the same content annotate identically, so the client's
  // schedule merges them: no extra backlight switches from chunking.
  for (std::size_t i = 1; i < scenes.size(); ++i) {
    EXPECT_EQ(scenes[i].safeLuma, scenes[0].safeLuma);
  }
}

TEST(OnlineAnnotator, LatencyBoundValidation) {
  core::AnnotatorConfig cfg;
  cfg.sceneDetect.minSceneFrames = 8;
  EXPECT_THROW(OnlineAnnotator(cfg, 4), std::invalid_argument);
  EXPECT_NO_THROW(OnlineAnnotator(cfg, 8));
  EXPECT_NO_THROW(OnlineAnnotator(cfg, 0));  // unbounded
}

TEST(OnlineAnnotator, FlushOnEmptyIsNull) {
  OnlineAnnotator online;
  EXPECT_FALSE(online.flush().has_value());
  EXPECT_EQ(online.framesSeen(), 0u);
}

TEST(OnlineAnnotator, ValidationOnEmptyQualityLevels) {
  core::AnnotatorConfig cfg;
  cfg.qualityLevels.clear();
  EXPECT_THROW(OnlineAnnotator{cfg}, std::invalid_argument);
}

TEST(Proxy, TranscodeMatchesServerTrack) {
  // Raw stream -> proxy must reconstruct (up to codec noise in the frame
  // statistics) the same annotation structure the server would compute.
  const media::VideoClip clip = testClip();
  MediaServer server;
  server.addClip(clip);

  const auto raw = server.serveRaw(clip.name);
  ProxyNode proxy;
  const auto transcoded = proxy.transcode(raw, ipaqCaps());
  const DemuxedStream d = demux(transcoded);
  ASSERT_TRUE(d.annotations.has_value());
  EXPECT_NO_THROW(core::validateTrack(*d.annotations));
  EXPECT_EQ(d.annotations->frameCount, clip.frames.size());

  // The proxy works from decoded (lossy) frames, so safe luma can differ by
  // a few codes, but the scene structure should be very close.
  const core::AnnotationTrack& serverTrack = server.entry(clip.name).track;
  const double ratio =
      static_cast<double>(d.annotations->scenes.size()) /
      static_cast<double>(serverTrack.scenes.size());
  EXPECT_GT(ratio, 0.7);
  EXPECT_LT(ratio, 1.4);
}

TEST(Proxy, TranscodedStreamIsCompensated) {
  const media::VideoClip clip = testClip();
  MediaServer server;
  server.addClip(clip);
  ProxyNode proxy;
  const auto transcoded = proxy.transcode(server.serveRaw(clip.name),
                                          ipaqCaps(2));
  const DemuxedStream d = demux(transcoded);
  const media::VideoClip served = media::decodeClip(d.video);
  // Compensation brightens: total luma mass should increase.
  double servedSum = 0.0, origSum = 0.0;
  for (std::size_t i = 0; i < clip.frames.size(); i += 7) {
    for (const media::Rgb8& p : served.frames[i].pixels()) {
      servedSum += media::luminance(p);
    }
    for (const media::Rgb8& p : clip.frames[i].pixels()) {
      origSum += media::luminance(p);
    }
  }
  EXPECT_GT(servedSum, origSum);
}

TEST(Proxy, ResolutionAdaptationShrinksStreamAndFrames) {
  const media::VideoClip clip = testClip();
  MediaServer server;
  server.addClip(clip);
  ProxyNode proxy;
  const auto raw = server.serveRaw(clip.name);
  const auto full = proxy.transcode(raw, ipaqCaps());
  const auto small = proxy.transcode(raw, ipaqCaps(), 16, 12);
  EXPECT_LT(small.size(), full.size() / 2);
  const DemuxedStream d = demux(small);
  EXPECT_EQ(d.video.width, 16);
  EXPECT_EQ(d.video.height, 12);
  EXPECT_EQ(d.video.frames.size(), clip.frames.size());
  ASSERT_TRUE(d.annotations.has_value());
  EXPECT_NO_THROW(core::validateTrack(*d.annotations));
}

TEST(Proxy, ResizedAnnotationsStayClose) {
  // Luminance statistics are (approximately) resolution-invariant, so the
  // resized stream's safe-luma ceilings should track the full-size ones.
  const media::VideoClip clip = testClip();
  MediaServer server;
  server.addClip(clip);
  ProxyNode proxy;
  const auto raw = server.serveRaw(clip.name);
  const auto a = demux(proxy.transcode(raw, ipaqCaps()));
  const auto b = demux(proxy.transcode(raw, ipaqCaps(), 16, 12));
  ASSERT_TRUE(a.annotations && b.annotations);
  // Compare the q=0 ceiling of the first scene (bilinear smoothing can
  // lower peaks slightly at 16x12).
  EXPECT_NEAR(a.annotations->scenes[0].safeLuma[0],
              b.annotations->scenes[0].safeLuma[0], 25.0);
}

TEST(Proxy, ProxiedStreamsCarryTheServedRiders) {
  // Server and proxy render through one renderStream, so a proxied stream
  // carries the same riders as a served one: the complexity track of its
  // own video and the sketches of the frames the proxy profiled.  The video
  // sections are pinned by CRC32 of serializeClip, captured before the
  // riders were added: adding them must not move a video byte.
  struct Size {
    int width;
    int height;
    std::vector<std::uint32_t> videoCrcs;  ///< parallel to `clients`
  };
  const std::vector<Size> sizes = {
      {0, 0, {0xbd4e99f6, 0x0072b93c, 0x48475a37, 0x3df45e5e}},
      {16, 12, {0x23efcb32, 0xb59ab112, 0x74dfe73d, 0xab1dc71b}},
  };
  std::vector<ClientCapabilities> clients = {ipaqCaps(2), ipaqCaps(4)};
  ClientCapabilities oled = ipaqCaps(4);
  oled.technology = DisplayTechnology::kEmissive;
  clients.push_back(oled);
  ClientCapabilities floor = ipaqCaps(4);
  floor.minBacklightLevel = 200;
  clients.push_back(floor);

  const media::VideoClip clip = testClip();
  MediaServer server;
  server.addClip(clip);
  const auto raw = server.serveRaw(clip.name);
  const media::VideoClip base = media::decodeClip(demux(raw).video);
  const ProxyNode proxy;
  for (const Size& size : sizes) {
    std::vector<media::FrameStats> stats;
    for (const media::Image& frame : base.frames) {
      stats.push_back(media::profileFrame(
          size.width > 0
              ? media::resizeBilinear(frame, size.width, size.height)
              : frame));
    }
    const FanoutResult fanout =
        proxy.transcodeFanout(raw, clients, size.width, size.height);
    ASSERT_EQ(fanout.streams.size(), clients.size());
    for (std::size_t i = 0; i < clients.size(); ++i) {
      SCOPED_TRACE(testing::Message() << size.width << "x" << size.height
                                      << " client " << i);
      const DemuxedStream d = demux(fanout.streams[i]);
      EXPECT_EQ(media::crc32(media::serializeClip(d.video)),
                size.videoCrcs[i]);
      ASSERT_TRUE(d.annotations.has_value());
      ASSERT_TRUE(d.complexity.has_value());
      ASSERT_TRUE(d.sketches.has_value());
      EXPECT_EQ(d.complexity->encode(),
                power::ComplexityTrack::fromEncodedClip(d.video).encode());
      EXPECT_EQ(*d.sketches, core::buildSketchTrack(*d.annotations, stats));
    }
  }
}

TEST(Proxy, ResizeValidation) {
  const media::VideoClip clip = testClip();
  MediaServer server;
  server.addClip(clip);
  ProxyNode proxy;
  const auto raw = server.serveRaw(clip.name);
  EXPECT_THROW((void)proxy.transcode(raw, ipaqCaps(), 16, 0),
               std::invalid_argument);
  EXPECT_THROW((void)proxy.transcode(raw, ipaqCaps(), 0, 12),
               std::invalid_argument);
}

TEST(Proxy, QualityIndexValidation) {
  const media::VideoClip clip = testClip();
  MediaServer server;
  server.addClip(clip);
  ProxyNode proxy;
  EXPECT_THROW((void)proxy.transcode(server.serveRaw(clip.name),
                                     ipaqCaps(17)),
               std::out_of_range);
}

}  // namespace
}  // namespace anno::stream
