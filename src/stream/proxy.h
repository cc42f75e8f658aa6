// Proxy node: on-the-fly annotation + compensation of a raw stream.
//
// Paper Fig. 1 / Sec. 3: "The communication between the handheld device and
// the server can be routed through a proxy node -- a high-end machine with
// the ability to process the video stream in real-time, on-the-fly (example
// in videoconferencing). Note that for our scheme either the proxy or the
// server node suffices."
//
// The proxy cannot look arbitrarily far ahead, so it runs the CAUSAL
// core::AnnotationEngine: frames are pushed until a scene cut is confirmed,
// then the finished scene is annotated, compensated and forwarded.  For
// stored content the causal pass produces exactly the same scene partition
// as the server's offline pass (tested byte-for-byte in tests/engine),
// because the offline pass IS the same engine fed in frame order.
//
// Only that annotation half is the proxy's own.  The per-client render is
// stream::renderStream, the same function MediaServer::serve calls, so a
// proxied stream carries everything a served one does: the annotation
// track, the decode-complexity rider and the per-scene sketch rider.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/annotate.h"
#include "core/engine.h"
#include "media/codec.h"
#include "stream/server.h"

namespace anno::telemetry {
class Registry;
class Counter;
class Histogram;
class TraceRecorder;
}

namespace anno::stream {

/// The streaming-side causal annotator is exactly the core annotation
/// engine -- push per-frame stats, receive finished scenes.  Historically
/// this was a separate hand-maintained mirror of core::detectScenes (which
/// silently ignored cfg.detector == kHistogramEmd, so a proxy could
/// annotate with a different algorithm than the server it is supposed to
/// be interchangeable with); the alias guarantees the two can never drift
/// again.  See core/engine.h for the push/flush contract and the
/// maxLatencyFrames live-video bound.
using OnlineAnnotator = core::AnnotationEngine;

/// Result of one fan-out run: per-client streams plus the sharing ledger
/// the fleet bench reports against.
struct FanoutResult {
  /// Muxed streams, index-parallel to the `clients` span.  Byte-identical
  /// to calling transcode() per client (pinned in tests/fleet).
  std::vector<std::vector<std::uint8_t>> streams;
  std::size_t enginePasses = 0;   ///< causal annotation passes run (== 1)
  std::size_t uniqueRenders = 0;  ///< distinct capability groups rendered
  std::size_t frames = 0;         ///< frames decoded+annotated (once, shared)
  std::size_t scenes = 0;         ///< scenes the shared pass closed
};

/// The proxy: consumes a raw muxed stream, produces an annotated +
/// compensated muxed stream for the negotiated client.
class ProxyNode {
 public:
  explicit ProxyNode(core::AnnotatorConfig annotatorCfg = {},
                     media::CodecConfig codecCfg = {});

  /// Transcodes `rawStream` (video-only container from serveRaw) into an
  /// annotated, compensated container for `caps`: renderStream over the
  /// decoded source, so the container carries the annotation, complexity
  /// and sketch sections like a served one.  When `targetWidth` /
  /// `targetHeight` are nonzero, frames are also resampled to that
  /// resolution -- the data-shaping role of the Fig. 1 proxy for clients
  /// with smaller screens (smaller frames also shrink the stream and the
  /// client's decode workload).
  [[nodiscard]] std::vector<std::uint8_t> transcode(
      std::span<const std::uint8_t> rawStream, const ClientCapabilities& caps,
      int targetWidth = 0, int targetHeight = 0) const;

  /// Fan-out (Fig. 1 proxy serving N subscribed clients of ONE source
  /// stream, e.g. a videoconference): decode + causal scene detection +
  /// planning run ONCE, then each client gets only its device-specific
  /// compensation + encode + mux.  Clients that negotiated identical
  /// capability bytes share a single rendered stream (uniqueRenders counts
  /// the distinct groups), so fleet cost scales with device diversity, not
  /// audience size.  Each returned stream is byte-identical to a standalone
  /// transcode(rawStream, clients[i], ...) call.
  [[nodiscard]] FanoutResult transcodeFanout(
      std::span<const std::uint8_t> rawStream,
      std::span<const ClientCapabilities> clients, int targetWidth = 0,
      int targetHeight = 0) const;

  /// Registers proxy instruments in `registry` and starts recording:
  ///   anno_proxy_transcodes_total, anno_proxy_frames_reannotated_total,
  ///   anno_proxy_scenes_reannotated_total, anno_proxy_transcode_seconds,
  ///   anno_proxy_fanouts_total, anno_proxy_fanout_clients_total,
  ///   anno_proxy_fanout_shared_renders_total (clients served from another
  ///   client's identical render).
  /// Every transcode() run is one per-client re-annotation of the source
  /// stream -- the fan-out cost signal the ROADMAP's shared-engine-pass
  /// item wants to drive down.  Detached by default (zero recording cost).
  void attachTelemetry(telemetry::Registry& registry);
  void detachTelemetry() noexcept;

  /// Starts emitting trace spans (cat "proxy"): `transcode` around each
  /// run, carrying clip name, frame and scene counts, with the virtual
  /// media clock advanced per decoded frame.  The causal annotator inside
  /// transcode() additionally emits engine scene spans into the same
  /// recorder.  Same null-object contract as attachTelemetry.
  void attachTrace(telemetry::TraceRecorder& trace) noexcept;
  void detachTrace() noexcept;

 private:
  struct Telemetry {
    telemetry::Counter* transcodes = nullptr;
    telemetry::Counter* framesReannotated = nullptr;
    telemetry::Counter* scenesReannotated = nullptr;
    telemetry::Histogram* transcodeSeconds = nullptr;
    telemetry::Counter* fanouts = nullptr;
    telemetry::Counter* fanoutClients = nullptr;
    telemetry::Counter* fanoutSharedRenders = nullptr;
  };

  /// One decoded + causally annotated source: everything client-independent,
  /// i.e. the inputs of renderStream.
  struct AnnotatedSource {
    media::VideoClip base;        ///< decoded (and, if requested, resized)
    core::AnnotationTrack track;  ///< the single shared engine pass's output
    core::SketchTrack sketches;   ///< from the stats that pass profiled
  };

  /// Runs the shared half of a transcode: demux, incremental decode (with
  /// optional resampling), causal annotation, sketches.  Exactly one engine
  /// pass; the per-client half is renderStream.
  [[nodiscard]] AnnotatedSource annotateSource(
      std::span<const std::uint8_t> rawStream, int targetWidth,
      int targetHeight) const;

  core::AnnotatorConfig annotatorCfg_;
  media::CodecConfig codecCfg_;
  Telemetry metrics_;
  telemetry::TraceRecorder* trace_ = nullptr;
};

}  // namespace anno::stream
