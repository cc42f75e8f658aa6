#include "workloads.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <type_traits>
#include <utility>

#include "core/anno_codec.h"
#include "core/annotate.h"
#include "core/runtime.h"
#include "core/track_cache.h"
#include "display/device.h"
#include "display/panel.h"
#include "fault/inject.h"
#include "media/clipgen.h"
#include "media/codec.h"
#include "media/crc32.h"
#include "media/kernels/kernels.h"
#include "media/rng.h"
#include "power/dvfs.h"
#include "quality/metrics.h"
#include "soak/traffic_mix.h"
#include "spans.h"
#include "stats.h"
#include "stream/client.h"
#include "stream/mux.h"
#include "stream/proxy.h"
#include "stream/scheduler.h"
#include "stream/server.h"

namespace perfbench {
namespace {

using namespace anno;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Content: paper clips at the frame sizes of the repository's fleet and soak
// mixes.

struct Tier {
  int width;
  int height;
  double durationScale;
};
constexpr Tier kTiers[] = {{32, 24, 0.02}, {64, 48, 0.01}, {96, 72, 0.006}};

struct ClipRecipe {
  media::PaperClip source = media::PaperClip::kTheMovie;
  std::size_t tier = 0;
  std::uint64_t realization = 1;
  std::string name;
};

std::size_t scaled(std::size_t n, double scale) {
  return std::max<std::size_t>(1, static_cast<std::size_t>(
                                      static_cast<double>(n) * scale + 0.5));
}

/// `perTier[t]` clips of tier t; sources cycle through the ten paper
/// trailers in a fixed order, each slot with its own fixed realization.
/// The catalog does not depend on the seed: seeds change who asks for
/// what, so the cost of a run varies little from seed to seed.
std::vector<ClipRecipe> makeCatalog(const std::vector<std::size_t>& perTier,
                                    const std::string& tag) {
  const std::vector<media::PaperClip> sources = media::allPaperClips();
  std::vector<ClipRecipe> out;
  std::size_t slot = 0;
  for (std::size_t t = 0; t < perTier.size(); ++t) {
    for (std::size_t i = 0; i < perTier[t]; ++i, ++slot) {
      ClipRecipe r;
      r.source = sources[slot % sources.size()];
      r.tier = t;
      r.realization = 0x5EED0000ULL + slot;
      r.name = tag + "-" + std::to_string(kTiers[t].width) + "x" +
               std::to_string(kTiers[t].height) + "-" + std::to_string(i);
      out.push_back(std::move(r));
    }
  }
  return out;
}

media::VideoClip generate(const ClipRecipe& r) {
  const Tier& t = kTiers[r.tier];
  media::VideoClip clip = media::generateClip(media::paperClipProfile(
      r.source, t.durationScale, t.width, t.height, r.realization));
  clip.name = r.name;
  return clip;
}

std::vector<media::VideoClip> generateAll(const std::vector<ClipRecipe>& rs) {
  std::vector<media::VideoClip> clips;
  clips.reserve(rs.size());
  for (const ClipRecipe& r : rs) clips.push_back(generate(r));
  return clips;
}

/// A client device at one quality level: the distinct (device, backlight
/// floor) pairs of the soak's device classes, each at quality 0..3.
struct Viewer {
  display::DeviceModel device;
  stream::ClientCapabilities caps;
  double bitsPerSec = 6e6;
};

std::vector<Viewer> makeViewers() {
  std::vector<Viewer> out;
  std::set<std::pair<int, int>> seen;
  for (const soak::DeviceClass& dc : soak::defaultDeviceClasses()) {
    if (!seen.insert({static_cast<int>(dc.device), dc.minBacklightLevel})
             .second) {
      continue;
    }
    for (std::size_t q = 0; q < 4; ++q) {
      Viewer v;
      v.device = display::makeDevice(dc.device);
      v.caps.deviceName = v.device.name;
      v.caps.transfer = v.device.transfer;
      v.caps.qualityIndex = q;
      v.caps.minBacklightLevel = dc.minBacklightLevel;
      v.bitsPerSec = dc.meanBitsPerSec;
      out.push_back(std::move(v));
    }
  }
  return out;
}

stream::ClientSession makeClient(const Viewer& v) {
  stream::ClientConfig c;
  c.device = v.device;
  c.qualityIndex = v.caps.qualityIndex;
  c.minBacklightLevel = v.caps.minBacklightLevel;
  return stream::ClientSession(std::move(c), stream::makeReferencePath());
}

core::BacklightSchedule scheduleFor(const core::AnnotationTrack& track,
                                    const stream::ClientCapabilities& caps,
                                    const display::DeviceModel& device) {
  return core::buildSchedule(track, caps.qualityIndex, device,
                             caps.minBacklightLevel);
}

template <typename T>
void shuffle(std::vector<T>& v, media::SplitMix64& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.below(i)]);
  }
}

/// One MediaServer with its TrackCache (the server is destroyed first).
struct Stack {
  core::TrackCache cache{core::TrackCacheConfig{16, 256u << 20}};
  std::unique_ptr<stream::MediaServer> server;
};

unsigned ingestThreads() {
  return std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
}

std::unique_ptr<Stack> makeStack(std::vector<media::VideoClip> clips,
                                 double* ingestSeconds) {
  auto st = std::make_unique<Stack>();
  core::AnnotatorConfig cfg;
  cfg.threads = ingestThreads();
  st->server = std::make_unique<stream::MediaServer>(cfg);
  st->server->attachTrackCache(st->cache);
  const Clock::time_point t0 = Clock::now();
  st->server->addClips(std::move(clips));
  if (ingestSeconds != nullptr) *ingestSeconds = since(t0);
  return st;
}

// ---------------------------------------------------------------------------
// Digests and output checks.

void putU32(std::vector<std::uint8_t>& b, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) b.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void putU64(std::vector<std::uint8_t>& b, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) b.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

std::uint32_t crcSchedule(const core::BacklightSchedule& s, std::uint32_t crc) {
  std::vector<std::uint8_t> b;
  putU32(b, s.frameCount);
  for (const core::BacklightCommand& c : s.commands) {
    putU32(b, c.frame);
    b.push_back(c.level);
    std::uint64_t bits = 0;
    std::memcpy(&bits, &c.gainK, sizeof bits);
    putU64(b, bits);
    b.push_back(c.toneCurve ? 1 : 0);
    if (c.toneCurve) b.insert(b.end(), c.toneCurve->begin(), c.toneCurve->end());
  }
  return media::crc32(b, crc);
}

bool sameSchedule(const core::BacklightSchedule& a,
                  const core::BacklightSchedule& b) {
  if (a.frameCount != b.frameCount || a.commands.size() != b.commands.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.commands.size(); ++i) {
    const core::BacklightCommand& x = a.commands[i];
    const core::BacklightCommand& y = b.commands[i];
    if (x.frame != y.frame || x.level != y.level || x.gainK != y.gainK) {
      return false;
    }
    if (static_cast<bool>(x.toneCurve) != static_cast<bool>(y.toneCurve)) {
      return false;
    }
    if (x.toneCurve && *x.toneCurve != *y.toneCurve) return false;
  }
  return true;
}

/// Backlight watts at the scheduled levels against level 255, per device.
struct PowerTally {
  double fullWatts = 0.0;
  double scheduledWatts = 0.0;

  void add(const core::BacklightSchedule& s, const display::DeviceModel& d) {
    const double full = d.backlightPowerWatts(255);
    for (std::uint32_t f = 0; f < s.frameCount; ++f) {
      fullWatts += full;
      scheduledWatts += d.backlightPowerWatts(s.levelAt(f));
    }
  }
  [[nodiscard]] double savedPct() const {
    return fullWatts > 0.0 ? 100.0 * (1.0 - scheduledWatts / fullWatts) : 0.0;
  }
};

/// Mean PSNR of what the panel shows (decoded frame at the scheduled
/// backlight) against the original at full backlight.
struct QualityTally {
  double sumDb = 0.0;
  std::size_t frames = 0;

  void add(const media::VideoClip& decoded, const media::VideoClip& original,
           const core::BacklightSchedule& s, const display::DeviceModel& d) {
    const std::size_t n =
        std::min(decoded.frames.size(), original.frames.size());
    const double full = d.transfer.relLuminance(255);
    for (std::size_t f = 0; f < n; ++f) {
      const double rel =
          d.transfer.relLuminance(s.levelAt(static_cast<std::uint32_t>(f)));
      sumDb += quality::psnr(
          display::displayedLuma(d.panel, decoded.frames[f], rel),
          display::displayedLuma(d.panel, original.frames[f], full));
      ++frames;
    }
  }
  [[nodiscard]] double meanDb() const {
    return frames > 0 ? sumDb / static_cast<double>(frames) : 0.0;
  }
};

/// 8x8 luma-block equivalents of a clip: the work unit of the codec.
double blocksOf(int width, int height, std::size_t frames) {
  return static_cast<double>(((width + 7) / 8) * ((height + 7) / 8)) *
         static_cast<double>(frames);
}

// ---------------------------------------------------------------------------
// The measuring harness shared by the workloads.

/// Set-ups per run: at least kMinSetupReps and enough to add up to about
/// kSetupSeconds, at most kMaxSetupReps.  They are spread over the timed
/// phase, and setup_s is their median.
constexpr std::size_t kMinSetupReps = 5;
constexpr std::size_t kMaxSetupReps = 25;
constexpr double kSetupSeconds = 2.0;

/// Timed seconds after which a run stops even without the samples for a
/// p99 (it then fails its sample check), so that it ends in time.
constexpr double kMaxTimedSeconds = 100.0;

struct Harness {
  explicit Harness(const RunConfig& c, SpanRecorder* r, double secs)
      : cfg(c), rec(r), seconds(secs) {}

  const RunConfig& cfg;
  SpanRecorder* rec;
  double seconds;
  /// Latency and layer samples; the suffix of the name is the unit.
  std::map<std::string, std::vector<double>> samples;
  std::map<std::string, double> sums;
  double timedSeconds = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t finished = 0;  ///< sessions that ran to their end
  std::vector<std::string> problems;
  std::uint32_t digest = 0;
  PowerTally power;
  QualityTally quality;

  void problem(std::string msg) {
    if (problems.size() < 16) problems.push_back(std::move(msg));
  }
  void failSession(const std::string& msg) {
    ++failed;
    problem(msg);
  }
  void sample(const std::string& name, double v) { samples[name].push_back(v); }
  void add(const std::string& name, double v) { sums[name] += v; }
  [[nodiscard]] bool keepGoing() const {
    if (timedSeconds < seconds) return true;
    const auto it = samples.find("request_ms");
    const std::size_t n = it == samples.end() ? 0 : it->second.size();
    return !quantileReportable(n, 0.99) && timedSeconds < kMaxTimedSeconds;
  }
};

/// Adds the wall time of its scope to the timed phase.
class Segment {
 public:
  explicit Segment(Harness& h) : h_(h), t0_(Clock::now()) {}
  ~Segment() { h_.timedSeconds += since(t0_); }
  Segment(const Segment&) = delete;
  Segment& operator=(const Segment&) = delete;

 private:
  Harness& h_;
  Clock::time_point t0_;
};

/// Runs `f` inside span `name`; stores its wall time in milliseconds.
template <typename F>
auto timed(Harness& h, const char* name, std::uint64_t traceId, double& ms,
           F&& f, int* spanId = nullptr) {
  ScopedSpan span(h.rec, name, traceId);
  if (spanId != nullptr) *spanId = span.id();
  const Clock::time_point t0 = Clock::now();
  if constexpr (std::is_void_v<std::invoke_result_t<F&>>) {
    f();
    ms = since(t0) * 1e3;
  } else {
    auto result = f();
    ms = since(t0) * 1e3;
    return result;
  }
}

/// Folds one session's stream and schedule into the run's digest.
void digestSession(Harness& h, std::uint32_t streamCrc,
                   const core::BacklightSchedule& s) {
  std::vector<std::uint8_t> b;
  putU32(b, streamCrc);
  putU32(b, crcSchedule(s, 0));
  h.digest = media::crc32(b, h.digest);
}

/// Decodes a served stream and checks it: the clip's frame count, intact
/// annotations, and (when given) the schedule the cached track yields.
/// Feeds the quality tally and the bytes-per-frame sums.
bool checkServed(Harness& h, const std::vector<std::uint8_t>& bytes,
                 const media::VideoClip& original, const Viewer& v,
                 const core::BacklightSchedule* expected, bool measureQuality,
                 const std::string& what) {
  try {
    const stream::DemuxedStream d = stream::demux(bytes);
    const media::VideoClip decoded = media::decodeClip(d.video);
    h.add("video_bytes", static_cast<double>(d.video.totalBytes()));
    h.add("video_frames", static_cast<double>(d.video.frames.size()));
    if (decoded.frames.size() != original.frames.size()) {
      h.problem(what + ": decoded " + std::to_string(decoded.frames.size()) +
                " frames, clip has " + std::to_string(original.frames.size()));
      return false;
    }
    if (!d.annotations.has_value() || !d.annotationDamage.intact()) {
      h.problem(what + ": annotations missing or damaged");
      return false;
    }
    const core::BacklightSchedule sched =
        scheduleFor(*d.annotations, v.caps, v.device);
    if (expected != nullptr && !sameSchedule(sched, *expected)) {
      h.problem(what + ": schedule differs from the cached track's");
      return false;
    }
    if (measureQuality) h.quality.add(decoded, original, sched, v.device);
    return true;
  } catch (const std::exception& e) {
    h.problem(what + ": " + e.what());
    return false;
  }
}

/// Traced run only: re-runs a receive as demux -> decodeClip ->
/// buildSchedule under a replay span that explains the receive span, and
/// checks the replay reaches the same frames and schedule.
void replayReceive(Harness& h, const std::vector<std::uint8_t>& bytes,
                   const Viewer& v, const stream::ReceivedStream& got,
                   int receiveSpan, std::uint64_t id) {
  double ms = 0.0;
  stream::DemuxedStream d;
  media::VideoClip decoded;
  core::BacklightSchedule sched;
  {
    ScopedSpan replay(h.rec, "replay.receive", id);
    h.rec->setExplains(replay.id(), receiveSpan);
    d = timed(h, "stream.demux", id, ms, [&] { return stream::demux(bytes); });
    h.sample("stream.demux_us", ms * 1e3);
    decoded = timed(h, "media.decode", id, ms,
                    [&] { return media::decodeClip(d.video); });
    h.sample("media.decode_ms", ms);
    h.add("decode_ms", ms);
    h.add("decode_blocks",
          blocksOf(d.video.width, d.video.height, d.video.frames.size()));
    if (!d.annotations.has_value()) {
      h.failSession("replayed demux lost the annotations");
      return;
    }
    sched = timed(h, "core.schedule", id, ms,
                  [&] { return scheduleFor(*d.annotations, v.caps, v.device); });
    h.sample("core.schedule_us", ms * 1e3);
  }
  // The annotation section alone, decoded the way demux decodes it.
  const std::vector<std::uint8_t> section = core::encodeTrack(*d.annotations);
  const Clock::time_point t0 = Clock::now();
  const core::LenientDecodeResult track = core::decodeTrackLenient(section);
  h.sample("core.track_decode_us", since(t0) * 1e6);
  if (!track.usable || decoded.frames.size() != got.video.frames.size() ||
      !sameSchedule(sched, got.schedule)) {
    h.failSession("replayed receive differs from ClientSession::receive");
  }
}

/// Per-receive output check of an intact stream.
bool checkIntactReceive(Harness& h, const stream::ReceivedStream& rs,
                        std::size_t frames, const std::string& what) {
  if (!rs.ok || rs.annotationFallback) {
    h.failSession(what + ": intact stream not ok (" + rs.error + ")");
    return false;
  }
  if (rs.video.frames.size() != frames) {
    h.failSession(what + ": received wrong frame count");
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Workloads.  setup() builds everything the timed phase needs (and may be
// called several times; each call replaces the previous state); round()
// runs one pass over the seeded population, timing only public calls;
// `first` marks the pass whose outputs feed the digest and output tallies.

class Workload {
 public:
  virtual ~Workload() = default;
  virtual void setup() = 0;
  virtual void round(Harness& h, bool first) = 0;
  [[nodiscard]] virtual std::uint32_t planCrc() const = 0;
  /// Ingest (addClips) seconds of the last setup, and clips ingested.
  double ingestSeconds = 0.0;
  std::size_t ingestClips = 0;
};

std::uint32_t crcRecipes(const std::vector<ClipRecipe>& rs, std::uint32_t crc) {
  std::vector<std::uint8_t> b;
  for (const ClipRecipe& r : rs) {
    putU32(b, static_cast<std::uint32_t>(r.source));
    putU32(b, static_cast<std::uint32_t>(r.tier));
    putU64(b, r.realization);
  }
  return media::crc32(b, crc);
}

/// Scheduler-wide figures of one round (traced run).
void recordFleetStats(Harness& h, const stream::FleetStats& fs) {
  h.sums["peak_concurrent"] = std::max(
      h.sums["peak_concurrent"], static_cast<double>(fs.peakConcurrentSessions));
  h.sums["unique_streams"] = std::max(h.sums["unique_streams"],
                                      static_cast<double>(fs.uniqueStreams));
}

/// One session's virtual playback figures (traced run).
void recordPlayback(Harness& h, const stream::SessionReport& r) {
  if (r.phase == stream::SessionPhase::kCompleted || r.playedSeconds > 0.0) {
    h.sample("stream.startup_s", r.startupDelaySeconds);
  }
  h.add("sessions", 1.0);
  h.add("stalls", static_cast<double>(r.stalls));
  h.add("stall_s", r.stallSeconds);
}

// --- fleet_cold: every session asks for a stream nobody asked for before.

class FleetCold final : public Workload {
 public:
  FleetCold(std::uint64_t seed, double scale) {
    const std::size_t perTier = scaled(kClipsPerTier, scale);
    catalog_ = makeCatalog({perTier, perTier, perTier}, "cold");
    tenants_ = soak::makeTenantConfigs(4);
    viewers_ = makeViewers();
    // Every viewer asks for every clip once, under a seeded tenant; each
    // clip's viewers are split evenly over the tenants.  Seeds change who
    // runs which tenant and the arrival order, not the mix.
    media::SplitMix64 rng(seed ^ 0xC01DULL);
    std::vector<std::uint32_t> tenantOf(viewers_.size());
    for (std::uint32_t c = 0; c < catalog_.size(); ++c) {
      for (std::size_t v = 0; v < tenantOf.size(); ++v) {
        tenantOf[v] = static_cast<std::uint32_t>(v % tenants_.size());
      }
      shuffle(tenantOf, rng);
      for (std::uint32_t v = 0; v < viewers_.size(); ++v) {
        sessions_.push_back({c, tenantOf[v], v});
      }
    }
    shuffle(sessions_, rng);
  }

  std::uint32_t planCrc() const override {
    std::vector<std::uint8_t> b;
    for (const auto& s : sessions_) {
      for (std::uint32_t x : s) putU32(b, x);
    }
    return media::crc32(b, crcRecipes(catalog_, 0));
  }

  void setup() override {
    stack_.reset();
    clips_ = generateAll(catalog_);
    stack_ = makeStack(clips_, &ingestSeconds);
    ingestClips = clips_.size();
    fresh_ = true;
  }

  void round(Harness& h, bool first) override {
    if (!fresh_) {  // a cold round needs empty memos: ingest again, untimed
      stack_.reset();
      stack_ = makeStack(clips_, nullptr);
    }
    fresh_ = false;
    stream::MediaServer& server = *stack_->server;
    stream::SessionScheduler::Config sc;
    sc.tickSeconds = 0.1;
    sc.deliveryThreads = 1;
    stream::SessionScheduler sched(server, sc);

    std::vector<std::uint64_t> ids(sessions_.size(), 0);
    for (std::size_t i = 0; i < sessions_.size(); ++i) {
      const auto [c, t, v] = sessions_[i];
      const std::string& clip = catalog_[c].name;
      const Viewer& viewer = viewers_[v];
      stream::FleetSessionConfig fc;
      fc.clipName = clip;
      fc.caps = viewer.caps;
      fc.tenantCfg = tenants_[t];
      fc.bandwidth = stream::BandwidthTrace::constant(viewer.bitsPerSec);
      fc.startupBufferSeconds = 0.3;
      fc.bufferCapacitySeconds = 4.0;
      ++h.attempted;
      const std::uint64_t traceId = h.attempted;
      core::TrackCacheStats before;
      if (h.rec != nullptr) before = stack_->cache.stats();
      double forMs = 0.0, joinMs = 0.0;
      int joinSpan = -1;
      try {
        {
          Segment seg(h);
          (void)timed(h, "core.annotation_for", traceId, forMs, [&] {
            return server.annotationFor(clip, tenants_[t]);
          });
          ids[i] = timed(h, "scheduler.join", traceId, joinMs,
                         [&] { return sched.join(fc); }, &joinSpan);
        }
        h.sample("request_ms", forMs + joinMs);
      } catch (const std::exception& e) {
        h.failSession(std::string("join: ") + e.what());
        continue;
      }
      if (h.rec != nullptr) {
        const core::TrackCacheStats after = stack_->cache.stats();
        h.add("track_hits", static_cast<double>(after.hits - before.hits));
        h.add("track_misses",
              static_cast<double>(after.misses - before.misses));
        if (after.fills > before.fills) h.sample("core.track_fill_ms", forMs);
        h.sample("stream.serve_miss_ms", joinMs);
        h.sample("stream.sched_join_us", joinMs * 1e3);
        replayServeMiss(h, clip, viewer, tenants_[t], joinSpan, traceId);
      }
    }
    {
      Segment seg(h);
      std::uint64_t guard = 0;
      while (!sched.allSessionsTerminal() && guard++ < 100000) {
        double ms = 0.0;
        timed(h, "scheduler.tick", 0, ms, [&] { sched.tick(); });
        h.sample("stream.sched_tick_us", ms * 1e3);
      }
    }
    const stream::FleetStats fs = sched.stats();
    h.finished += fs.sessionsCompleted;
    if (h.rec != nullptr) recordFleetStats(h, fs);
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (ids[i] == 0) continue;
      const stream::SessionReport r = sched.report(ids[i]);
      if (r.phase != stream::SessionPhase::kCompleted ||
          r.bytesDelivered < r.streamBytes || r.streamBytes == 0) {
        h.failSession("cold session did not play out");
      }
      if (h.rec != nullptr) recordPlayback(h, r);
    }
    if (first) checkPopulation(h);
  }

 private:
  void replayServeMiss(Harness& h, const std::string& clip, const Viewer& v,
                       const core::AnnotatorConfig& tenant, int joinSpan,
                       std::uint64_t id) {
    stream::MediaServer& server = *stack_->server;
    const media::VideoClip& original = server.entry(clip).original;
    const core::CachedTrackPtr track = server.annotationFor(clip, tenant);
    std::vector<std::uint8_t> bytes;
    double ms = 0.0;
    {
      ScopedSpan replay(h.rec, "replay.serve_miss", id);
      h.rec->setExplains(replay.id(), joinSpan);
      const media::VideoClip compensated =
          timed(h, "core.compensate", id, ms, [&] {
            return core::compensateClip(original, track->track,
                                        v.caps.qualityIndex,
                                        stream::deviceFromCapabilities(v.caps),
                                        v.caps.minBacklightLevel);
          });
      h.sample("core.compensate_ms", ms);
      const media::EncodedClip encoded = timed(
          h, "media.encode", id, ms, [&] { return media::encodeClip(compensated); });
      h.sample("media.encode_ms", ms);
      h.add("encode_ms", ms);
      h.add("encode_blocks",
            blocksOf(encoded.width, encoded.height, encoded.frames.size()));
      const power::ComplexityTrack complexity =
          timed(h, "power.complexity", id, ms, [&] {
            return power::ComplexityTrack::fromEncodedClip(encoded);
          });
      h.sample("power.complexity_us", ms * 1e3);
      bytes = timed(h, "stream.mux", id, ms, [&] {
        return stream::mux(encoded, &track->track, &complexity,
                           &track->sketches);
      });
      h.sample("stream.mux_us", ms * 1e3);
    }
    if (bytes != server.serve(clip, v.caps, tenant)) {
      h.failSession("replayed serve miss is not byte-equal to serve()");
    }
  }

  void checkPopulation(Harness& h) {
    stream::MediaServer& server = *stack_->server;
    for (std::size_t i = 0; i < sessions_.size(); ++i) {
      const auto [c, t, v] = sessions_[i];
      const std::string& clip = catalog_[c].name;
      const Viewer& viewer = viewers_[v];
      const core::BacklightSchedule expected = scheduleFor(
          server.annotationFor(clip, tenants_[t])->track, viewer.caps,
          viewer.device);
      const std::vector<std::uint8_t> bytes =
          server.serve(clip, viewer.caps, tenants_[t]);
      digestSession(h, media::crc32(bytes), expected);
      h.power.add(expected, viewer.device);
      if (!checkServed(h, bytes, server.entry(clip).original, viewer,
                       &expected, true,
                       "fleet_cold stream " + std::to_string(i))) {
        ++h.failed;
      }
    }
  }

  static constexpr std::size_t kClipsPerTier = 30;

  std::vector<ClipRecipe> catalog_;
  std::vector<core::AnnotatorConfig> tenants_;
  std::vector<Viewer> viewers_;
  std::vector<std::array<std::uint32_t, 3>> sessions_;
  std::vector<media::VideoClip> clips_;
  std::unique_ptr<Stack> stack_;
  bool fresh_ = false;
};

// --- fleet_hot: a soak-mix population over a virtual day; every join hits.

class FleetHot final : public Workload {
 public:
  FleetHot(std::uint64_t seed, double scale) {
    catalog_ = makeCatalog({2, 2, 2}, "hot");
    soak::TrafficMixConfig mc;
    mc.seed = seed;
    mc.sessions = scaled(24000, scale);
    mc.daySeconds = 24.0;
    mc.tickSeconds = 0.1;
    mc.tenantCount = 4;
    mc.leaveFraction = 0.02;
    mc.faultFraction = 0.0;
    for (std::size_t i = 0; i < catalog_.size(); ++i) {
      soak::ContentProfile p;
      p.name = catalog_[i].name;
      p.source = catalog_[i].source;
      p.width = kTiers[catalog_[i].tier].width;
      p.height = kTiers[catalog_[i].tier].height;
      p.durationScale = kTiers[catalog_[i].tier].durationScale;
      p.weight = 1.0 / (1.0 + 0.35 * static_cast<double>(i));
      mc.contentProfiles.push_back(std::move(p));
    }
    mix_ = soak::generateTrafficMix(mc);
    for (const soak::DeviceClass& dc : mix_.config.deviceClasses) {
      Viewer v;
      v.device = display::makeDevice(dc.device);
      v.caps.deviceName = v.device.name;
      v.caps.transfer = v.device.transfer;
      v.caps.qualityIndex = dc.qualityIndex;
      v.caps.minBacklightLevel = dc.minBacklightLevel;
      v.bitsPerSec = dc.meanBitsPerSec;
      classes_.push_back(std::move(v));
    }
  }

  std::uint32_t planCrc() const override {
    std::vector<std::uint8_t> b;
    for (const soak::SessionPlan& p : mix_.sessions) {
      putU64(b, p.arrivalTick);
      putU32(b, p.deviceClass);
      putU32(b, p.contentProfile);
      putU32(b, p.tenant);
      std::uint64_t bits = 0;
      std::memcpy(&bits, &p.bandwidthScale, sizeof bits);
      putU64(b, bits);
      putU64(b, p.leaveAfterTicks);
    }
    return media::crc32(b, crcRecipes(catalog_, 0));
  }

  void setup() override {
    stack_.reset();
    clips_ = generateAll(catalog_);
    stack_ = makeStack(clips_, &ingestSeconds);
    ingestClips = clips_.size();
    // The popular catalog is served once: every stream the day asks for.
    for (const ClipRecipe& r : catalog_) {
      for (const core::AnnotatorConfig& t : mix_.tenants) {
        for (const Viewer& v : classes_) {
          (void)stack_->server->annotationFor(r.name, t);
          (void)stack_->server->serve(r.name, v.caps, t);
        }
      }
    }
  }

  void round(Harness& h, bool first) override {
    stream::MediaServer& server = *stack_->server;
    stream::SessionScheduler::Config sc;
    sc.policy = stream::SchedulePolicy::kDeadline;
    sc.tickSeconds = mix_.config.tickSeconds;
    sc.serviceBudgetPerTick = kServiceBudget;
    sc.deliveryThreads = 1;
    stream::SessionScheduler sched(server, sc);
    const std::vector<soak::SessionPlan>& plans = mix_.sessions;
    std::multimap<std::uint64_t, std::uint64_t> leavesAt;
    std::vector<std::uint64_t> ids;
    ids.reserve(plans.size());
    std::size_t next = 0;
    std::vector<stream::FleetSessionConfig> arrivals;
    const core::TrackCacheStats cacheBefore = stack_->cache.stats();
    double activeTicks = 0.0;
    for (std::uint64_t t = 0; t < mix_.ticks + 100000; ++t) {
      if (next >= plans.size() && sched.allSessionsTerminal()) break;
      // This tick's arrivals, built before the clock starts.
      arrivals.clear();
      for (std::size_t i = next;
           i < plans.size() && plans[i].arrivalTick == t; ++i) {
        arrivals.push_back(sessionConfig(plans[i]));
      }
      double stepMs = 0.0;
      try {
        Segment seg(h);
        ScopedSpan step(h.rec, "bench.step", t);
        const Clock::time_point t0 = Clock::now();
        for (const stream::FleetSessionConfig& fc : arrivals) {
          const soak::SessionPlan& p = plans[next];
          ++h.attempted;
          double ms = 0.0;
          (void)timed(h, "core.annotation_for", h.attempted, ms, [&] {
            return server.annotationFor(fc.clipName, *fc.tenantCfg);
          });
          const std::uint64_t id = timed(h, "scheduler.join", h.attempted, ms,
                                         [&] { return sched.join(fc); });
          if (h.rec != nullptr) h.sample("stream.sched_join_us", ms * 1e3);
          ids.push_back(id);
          if (p.leaveAfterTicks != 0) leavesAt.emplace(t + p.leaveAfterTicks, id);
          ++next;
        }
        for (auto [it, end] = leavesAt.equal_range(t); it != end; ++it) {
          (void)sched.leave(it->second);
        }
        double tickMs = 0.0;
        timed(h, "scheduler.tick", t, tickMs, [&] { sched.tick(); });
        if (h.rec != nullptr) h.sample("stream.sched_tick_us", tickMs * 1e3);
        stepMs = since(t0) * 1e3;
      } catch (const std::exception& e) {
        h.failSession(std::string("fleet_hot step: ") + e.what());
        break;
      }
      leavesAt.erase(t);
      h.sample("request_ms", stepMs);
      if (h.rec != nullptr) {
        activeTicks += static_cast<double>(sched.stats().activeSessions);
      }
    }
    const stream::FleetStats fs = sched.stats();
    h.finished += fs.sessionsCompleted + fs.sessionsLeft;
    if (fs.sessionsJoined != plans.size() ||
        fs.sessionsCompleted + fs.sessionsLeft != plans.size()) {
      h.failSession("fleet_hot: not every session reached its end");
    }
    if (h.rec != nullptr) {
      const core::TrackCacheStats after = stack_->cache.stats();
      h.add("track_hits", static_cast<double>(after.hits - cacheBefore.hits));
      h.add("track_misses",
            static_cast<double>(after.misses - cacheBefore.misses));
      h.add("session_ticks", activeTicks);
      recordFleetStats(h, fs);
    }
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const stream::SessionReport r = sched.report(ids[i]);
      const bool left = r.phase == stream::SessionPhase::kLeft;
      if (!left && (r.phase != stream::SessionPhase::kCompleted ||
                    r.bytesDelivered < r.streamBytes)) {
        h.failSession("fleet_hot session did not play out");
      }
      if (left && plans[i].leaveAfterTicks == 0) {
        h.failSession("fleet_hot session left unplanned");
      }
      if (h.rec != nullptr) recordPlayback(h, r);
    }
    if (first) checkPopulation(h);
  }

 private:
  /// Sessions granted delivery per tick: enough for the day's peak
  /// arrivals, so no backlog grows, yet binding at the peak, where the
  /// deadline order decides who waits.  (At 128 the peak backlog grew to
  /// 5800 sessions and 6.7 s startup p99, and runs were noisier.)
  static constexpr std::size_t kServiceBudget = 192;

  /// The scheduler's view of one planned session, as the soak driver
  /// builds it.
  stream::FleetSessionConfig sessionConfig(const soak::SessionPlan& p) const {
    const soak::DeviceClass& dc = mix_.config.deviceClasses[p.deviceClass];
    stream::FleetSessionConfig fc;
    fc.clipName = catalog_[p.contentProfile].name;
    fc.caps = classes_[p.deviceClass].caps;
    fc.tenantCfg = mix_.tenants[p.tenant];
    const double rate = dc.meanBitsPerSec * p.bandwidthScale;
    fc.bandwidth = dc.periodicDips
                       ? stream::BandwidthTrace::periodicDip(
                             rate, rate * dc.dipFraction, dc.dipPeriodSeconds,
                             dc.dipSeconds)
                       : stream::BandwidthTrace::constant(rate);
    fc.startupBufferSeconds = dc.startupBufferSeconds;
    fc.bufferCapacitySeconds = dc.bufferCapacitySeconds;
    return fc;
  }

  /// Digest and power tally over every planned session, in plan order;
  /// each (tenant, class, profile) stream is decoded and checked once.
  void checkPopulation(Harness& h) {
    stream::MediaServer& server = *stack_->server;
    struct Cell {
      core::BacklightSchedule schedule;
      std::uint32_t streamCrc = 0;
    };
    std::map<std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>, Cell>
        cells;
    for (const soak::SessionPlan& p : mix_.sessions) {
      const Viewer& v = classes_[p.deviceClass];
      const std::string& clip = catalog_[p.contentProfile].name;
      const core::AnnotatorConfig& tenant = mix_.tenants[p.tenant];
      auto [it, added] = cells.try_emplace(
          std::make_tuple(p.tenant, p.deviceClass, p.contentProfile));
      if (added) {
        it->second.schedule =
            scheduleFor(server.annotationFor(clip, tenant)->track, v.caps,
                        v.device);
        const std::vector<std::uint8_t> bytes = server.serve(clip, v.caps, tenant);
        it->second.streamCrc = media::crc32(bytes);
        if (!checkServed(h, bytes, server.entry(clip).original, v,
                         &it->second.schedule, true, "fleet_hot stream " + clip)) {
          ++h.failed;
        }
      }
      digestSession(h, it->second.streamCrc, it->second.schedule);
      h.power.add(it->second.schedule, v.device);
    }
  }

  std::vector<ClipRecipe> catalog_;
  soak::TrafficMix mix_;
  std::vector<Viewer> classes_;
  std::vector<media::VideoClip> clips_;
  std::unique_ptr<Stack> stack_;
};

// --- client_receive: serve hit + ClientSession::receive, a tenth damaged.

class ClientReceive final : public Workload {
 public:
  ClientReceive(std::uint64_t seed, double scale) {
    catalog_ = makeCatalog({3, 3, 3}, "recv");
    tenants_ = soak::makeTenantConfigs(2);
    viewers_ = makeViewers();
    for (std::uint32_t c = 0; c < catalog_.size(); ++c) {
      for (std::uint32_t t = 0; t < tenants_.size(); ++t) {
        for (std::uint32_t v = 0; v < viewers_.size(); ++v) {
          keys_.push_back({c, t, v});
        }
      }
    }
    // Every key kRepeats times in seeded order; a seeded tenth of the
    // sessions (with seeded fault plans) receive damaged bytes.
    media::SplitMix64 rng(seed ^ 0x2ECE17EULL);
    const std::size_t repeats = scaled(kRepeats, scale);
    for (std::size_t r = 0; r < repeats; ++r) {
      for (std::uint32_t k = 0; k < keys_.size(); ++k) {
        sessions_.push_back(Session{k, 0});
      }
    }
    shuffle(sessions_, rng);
    std::vector<std::size_t> order(sessions_.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    shuffle(order, rng);
    for (std::size_t i = 0; i < order.size() / 10; ++i) {
      sessions_[order[i]].faultSeed = rng.next() | 1;
    }
  }

  std::uint32_t planCrc() const override {
    std::vector<std::uint8_t> b;
    for (const Session& s : sessions_) {
      putU32(b, s.key);
      putU64(b, s.faultSeed);
    }
    return media::crc32(b, crcRecipes(catalog_, 0));
  }

  void setup() override {
    stack_.reset();
    clients_.clear();
    stack_ = makeStack(generateAll(catalog_), &ingestSeconds);
    ingestClips = catalog_.size();
    // Every device class at every quality level, for every tenant.
    for (const auto& [c, t, v] : keys_) {
      (void)stack_->server->serve(catalog_[c].name, viewers_[v].caps,
                                  tenants_[t]);
    }
    for (const Viewer& v : viewers_) clients_.push_back(makeClient(v));
  }

  void round(Harness& h, bool first) override {
    stream::MediaServer& server = *stack_->server;
    for (const Session& s : sessions_) {
      const auto [c, t, v] = keys_[s.key];
      const std::string& clip = catalog_[c].name;
      ++h.attempted;
      const std::uint64_t id = h.attempted;
      double hitMs = 0.0, recvMs = 0.0;
      int recvSpan = -1;
      try {
        std::vector<std::uint8_t> bytes;
        {
          Segment seg(h);
          bytes = timed(h, "server.serve_hit", id, hitMs, [&] {
            return server.serve(clip, viewers_[v].caps, tenants_[t]);
          });
        }
        if (s.faultSeed != 0) bytes = fault::injectFaults(bytes, s.faultSeed);
        stream::ReceivedStream rs;
        {
          Segment seg(h);
          rs = timed(h, "client.receive", id, recvMs,
                     [&] { return clients_[v].receive(bytes); }, &recvSpan);
        }
        ++h.finished;
        if (h.rec != nullptr) {
          h.sample("stream.serve_hit_us", hitMs * 1e3);
          h.add("serve_hit_bytes", static_cast<double>(bytes.size()));
          h.add("serve_hits", 1.0);
        }
        if (first) {
          digestSession(h, media::crc32(bytes), rs.schedule);
          h.power.add(expected(s.key), viewers_[v].device);
        }
        if (s.faultSeed != 0) {
          h.add("mutated", 1.0);
          if (!rs.ok || rs.annotationFallback) h.add("degraded", 1.0);
          if (h.rec != nullptr) h.sample("stream.receive_mutated_ms", recvMs);
          continue;
        }
        h.sample("request_ms", recvMs);
        const media::VideoClip& original = server.entry(clip).original;
        if (!checkIntactReceive(h, rs, original.frames.size(),
                                "client_receive " + clip)) {
          continue;
        }
        if (!sameSchedule(rs.schedule, expected(s.key))) {
          h.failSession("client_receive: schedule differs from buildSchedule "
                        "on the cached track");
          continue;
        }
        if (h.rec != nullptr) replayReceive(h, bytes, viewers_[v], rs, recvSpan, id);
      } catch (const std::exception& e) {
        h.failSession(std::string("client_receive: ") + e.what());
      }
    }
    if (first) {
      // Every prefilled stream decodes to its clip and cached schedule.
      for (std::uint32_t k = 0; k < keys_.size(); ++k) {
        const auto [c, t, v] = keys_[k];
        const std::string& clip = catalog_[c].name;
        if (!checkServed(h, server.serve(clip, viewers_[v].caps, tenants_[t]),
                         server.entry(clip).original, viewers_[v], &expected(k),
                         true, "client_receive stream " + clip)) {
          ++h.failed;
        }
      }
    }
  }

 private:
  static constexpr std::size_t kRepeats = 5;

  struct Session {
    std::uint32_t key = 0;
    std::uint64_t faultSeed = 0;  ///< nonzero: the stream is damaged first
  };

  const core::BacklightSchedule& expected(std::uint32_t key) {
    auto it = expected_.find(key);
    if (it == expected_.end()) {
      const auto [c, t, v] = keys_[key];
      it = expected_
               .emplace(key, scheduleFor(stack_->server
                                             ->annotationFor(catalog_[c].name,
                                                             tenants_[t])
                                             ->track,
                                         viewers_[v].caps, viewers_[v].device))
               .first;
    }
    return it->second;
  }

  std::vector<ClipRecipe> catalog_;
  std::vector<core::AnnotatorConfig> tenants_;
  std::vector<Viewer> viewers_;
  std::vector<std::array<std::uint32_t, 3>> keys_;
  std::vector<Session> sessions_;
  std::unique_ptr<Stack> stack_;
  std::vector<stream::ClientSession> clients_;
  std::map<std::uint32_t, core::BacklightSchedule> expected_;
};

// --- proxy_live: raw sources fanned out to subscriber sets, then received.
// Its request is the fanout call: one render per capability group.

class ProxyLive final : public Workload {
 public:
  ProxyLive(std::uint64_t seed, double scale) {
    const std::size_t perTier = scaled(8, scale);
    catalog_ = makeCatalog({perTier, perTier, perTier}, "live");
    viewers_ = makeViewers();
    // Every source is fanned out to every viewer once: a seeded
    // permutation of the viewers is cut into groups of kGroups, and each
    // group becomes one fanout of kSubscribers subscribers (equal shares).
    media::SplitMix64 rng(seed ^ 0x960C5ULL);
    std::vector<std::uint32_t> order(viewers_.size());
    for (std::uint32_t src = 0; src < catalog_.size(); ++src) {
      for (std::uint32_t v = 0; v < order.size(); ++v) order[v] = v;
      shuffle(order, rng);
      for (std::size_t g = 0; g + kGroups <= order.size(); g += kGroups) {
        Fanout f;
        f.source = src;
        for (std::size_t k = 0; k < kSubscribers; ++k) {
          f.subscribers.push_back(order[g + k % kGroups]);
        }
        shuffle(f.subscribers, rng);
        fanouts_.push_back(std::move(f));
      }
    }
    shuffle(fanouts_, rng);
  }

  std::uint32_t planCrc() const override {
    std::vector<std::uint8_t> b;
    for (const Fanout& f : fanouts_) {
      putU32(b, f.source);
      for (std::uint32_t v : f.subscribers) putU32(b, v);
    }
    return media::crc32(b, crcRecipes(catalog_, 0));
  }

  void setup() override {
    stack_.reset();
    clients_.clear();
    raw_.clear();
    stack_ = makeStack(generateAll(catalog_), &ingestSeconds);
    ingestClips = catalog_.size();
    for (const ClipRecipe& r : catalog_) {
      raw_.push_back(stack_->server->serveRaw(r.name));
    }
    for (const Viewer& v : viewers_) clients_.push_back(makeClient(v));
  }

  void round(Harness& h, bool first) override {
    const stream::ProxyNode proxy;
    for (std::size_t j = 0; j < fanouts_.size(); ++j) {
      const Fanout& f = fanouts_[j];
      const media::VideoClip& original =
          stack_->server->entry(catalog_[f.source].name).original;
      std::vector<stream::ClientCapabilities> caps;
      for (std::uint32_t v : f.subscribers) caps.push_back(viewers_[v].caps);
      stream::FanoutResult res;
      double ms = 0.0;
      try {
        Segment seg(h);
        res = timed(h, "proxy.fanout", j, ms, [&] {
          return proxy.transcodeFanout(raw_[f.source], caps);
        });
      } catch (const std::exception& e) {
        h.attempted += f.subscribers.size();
        h.failed += f.subscribers.size();
        h.problem(std::string("transcodeFanout: ") + e.what());
        continue;
      }
      h.sample("request_ms", ms);
      if (h.rec != nullptr) {
        h.sample("stream.fanout_ms", ms);
        h.add("fanout_clients", static_cast<double>(f.subscribers.size()));
        h.add("fanout_renders", static_cast<double>(res.uniqueRenders));
      }
      if (res.streams.size() != f.subscribers.size() ||
          res.uniqueRenders != kGroups) {
        h.attempted += f.subscribers.size();
        h.failed += f.subscribers.size();
        h.problem("transcodeFanout: wrong stream or render count");
        continue;
      }
      std::set<std::uint32_t> measured;
      for (std::size_t i = 0; i < f.subscribers.size(); ++i) {
        const std::uint32_t v = f.subscribers[i];
        ++h.attempted;
        const std::uint64_t id = h.attempted;
        int recvSpan = -1;
        try {
          stream::ReceivedStream rs;
          {
            Segment seg(h);
            rs = timed(h, "client.receive", id, ms,
                       [&] { return clients_[v].receive(res.streams[i]); },
                       &recvSpan);
          }
          ++h.finished;
          if (!checkIntactReceive(h, rs, original.frames.size(),
                                  "proxy_live " + catalog_[f.source].name)) {
            continue;
          }
          if (first) {
            digestSession(h, media::crc32(res.streams[i]), rs.schedule);
            h.power.add(rs.schedule, viewers_[v].device);
            if (measured.insert(v).second) {
              h.quality.add(rs.video, original, rs.schedule, viewers_[v].device);
              if (!checkServed(h, res.streams[i], original, viewers_[v],
                               &rs.schedule, false, "proxy_live stream")) {
                ++h.failed;
              }
            }
          }
          if (h.rec != nullptr) {
            replayReceive(h, res.streams[i], viewers_[v], rs, recvSpan, id);
          }
        } catch (const std::exception& e) {
          h.failSession(std::string("proxy_live receive: ") + e.what());
        }
      }
    }
  }

 private:
  static constexpr std::size_t kGroups = 3;
  static constexpr std::size_t kSubscribers = 6;

  struct Fanout {
    std::uint32_t source = 0;
    std::vector<std::uint32_t> subscribers;  ///< viewer indices
  };

  std::vector<ClipRecipe> catalog_;
  std::vector<Viewer> viewers_;
  std::vector<Fanout> fanouts_;
  std::unique_ptr<Stack> stack_;
  std::vector<std::vector<std::uint8_t>> raw_;
  std::vector<stream::ClientSession> clients_;
};

std::unique_ptr<Workload> makeWorkload(const std::string& name,
                                       std::uint64_t seed, double scale) {
  if (name == "fleet_cold") return std::make_unique<FleetCold>(seed, scale);
  if (name == "fleet_hot") return std::make_unique<FleetHot>(seed, scale);
  if (name == "client_receive") {
    return std::make_unique<ClientReceive>(seed, scale);
  }
  if (name == "proxy_live") return std::make_unique<ProxyLive>(seed, scale);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

/// The layer whose self time should dominate each workload (a span's layer
/// is its name up to the first dot).
const char* expectedTopLayer(const std::string& workload) {
  if (workload == "fleet_hot") return "scheduler";
  if (workload == "proxy_live") return "proxy";
  return "media";  // encode on fleet_cold, decode on client_receive
}

/// Span file size cap: the first spans of a run show every layer, and
/// fleet_hot records millions.
constexpr std::size_t kMaxWrittenSpans = 200000;

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double p50(const Harness& h, const std::string& name) {
  const auto it = h.samples.find(name);
  return it == h.samples.end() ? 0.0 : quantile(it->second, 0.5);
}

/// p99 when at least ten samples lie beyond it, else 0.
double p99(const Harness& h, const std::string& name) {
  const auto it = h.samples.find(name);
  if (it == h.samples.end() || !quantileReportable(it->second.size(), 0.99)) {
    return 0.0;
  }
  return quantile(it->second, 0.99);
}

double ratio(const Harness& h, const std::string& num, const std::string& den) {
  const auto n = h.sums.find(num);
  const auto d = h.sums.find(den);
  if (n == h.sums.end() || d == h.sums.end() || d->second == 0.0) return 0.0;
  return n->second / d->second;
}

/// Wall times of a run's set-ups and of the ingest inside each.
struct SetUps {
  std::vector<double> seconds;
  std::vector<double> ingestMsPerClip;
  std::size_t reps = kMinSetupReps;  ///< fixed by the first set-up

  void run(Workload& w) {
    const Clock::time_point t0 = Clock::now();
    w.setup();
    seconds.push_back(since(t0));
    ingestMsPerClip.push_back(w.ingestSeconds * 1e3 /
                              static_cast<double>(w.ingestClips));
    if (seconds.size() == 1) {
      const double wanted = std::ceil(kSetupSeconds / std::max(seconds[0], 1e-3));
      reps = std::clamp(static_cast<std::size_t>(wanted), kMinSetupReps,
                        kMaxSetupReps);
    }
  }
};

/// Runs rounds until the harness has enough.  With `setUps`, the workload
/// is set up again each time the timed phase passes another 1/reps of its
/// length, so the set-ups meet the host's slow and fast periods as the
/// timed calls do and their median is as steady; reps the loop did not
/// reach run after it.
void runRounds(Workload& w, Harness& h, bool firstIsBookkept,
               SetUps* setUps) {
  bool first = firstIsBookkept;
  auto due = [&] {
    const std::size_t done = setUps->seconds.size();
    return done == 0 ||
           (done < setUps->reps &&
            h.timedSeconds >= h.seconds * static_cast<double>(done) /
                                  static_cast<double>(setUps->reps));
  };
  while (h.keepGoing()) {
    while (setUps != nullptr && due()) setUps->run(w);
    w.round(h, first);
    first = false;
  }
  while (setUps != nullptr && setUps->seconds.size() < setUps->reps) {
    setUps->run(w);
  }
}

std::string jsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out.push_back(' ');
    } else {
      out.push_back(c);
    }
  }
  return out;
}

}  // namespace

const std::vector<std::string>& workloadNames() {
  static const std::vector<std::string> names = {
      "fleet_cold", "fleet_hot", "client_receive", "proxy_live"};
  return names;
}

std::uint32_t planDigest(const std::string& workload, std::uint64_t seed,
                         double scale) {
  return makeWorkload(workload, seed, scale)->planCrc();
}

std::string provenanceJson(const RunConfig& cfg) {
  char host[256] = {};
  if (gethostname(host, sizeof host - 1) != 0) std::strcpy(host, "unknown");
  std::string cpu = "unknown";
  std::ifstream info("/proc/cpuinfo");
  for (std::string line; std::getline(info, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) cpu = line.substr(colon + 2);
      break;
    }
  }
  std::ostringstream o;
  o << "{\"host\":\"" << jsonEscape(host) << "\",\"cpu\":\"" << jsonEscape(cpu)
    << "\",\"nproc\":" << std::thread::hardware_concurrency()
    << ",\"simd\":\""
    << media::kernels::levelName(media::kernels::activeLevel())
    << "\",\"build_type\":\"" << PERFBENCH_BUILD_TYPE << "\",\"compiler\":\""
    << jsonEscape(PERFBENCH_COMPILER) << "\",\"revision\":\""
    << jsonEscape(cfg.revision) << "\",\"workload\":\""
    << jsonEscape(cfg.workload) << "\",\"seed\":" << cfg.seed
    << ",\"seconds\":" << cfg.seconds << ",\"trace\":" << (cfg.trace ? 1 : 0)
    << ",\"ingest_threads\":" << ingestThreads() << "}";
  return o.str();
}

RunResult runWorkload(const RunConfig& cfg) {
  std::unique_ptr<Workload> w = makeWorkload(cfg.workload, cfg.seed, cfg.scale);
  SetUps setUps;

  RunResult out;
  std::unique_ptr<SpanRecorder> rec;
  double untracedRate = 0.0;
  if (cfg.trace) {
    // Untraced pass first, for the tracing overhead.
    setUps.run(*w);
    Harness plain(cfg, nullptr, cfg.seconds / 2.0);
    runRounds(*w, plain, false, nullptr);
    untracedRate = static_cast<double>(plain.finished) / plain.timedSeconds;
    rec = std::make_unique<SpanRecorder>();
  }
  Harness h(cfg, rec.get(), cfg.seconds);
  runRounds(*w, h, true, &setUps);

  out.attempted = h.attempted;
  out.failed = h.failed;
  out.digest = h.digest;
  out.problems = h.problems;
  const double rate =
      h.timedSeconds > 0.0 ? static_cast<double>(h.finished) / h.timedSeconds
                           : 0.0;
  const auto reqIt = h.samples.find("request_ms");
  const std::size_t reqN = reqIt == h.samples.end() ? 0 : reqIt->second.size();
  if (!quantileReportable(reqN, 0.99)) {
    out.problems.push_back("too few request samples for a p99: " +
                           std::to_string(reqN));
  }
  out.correct = out.failed == 0 && out.problems.empty() && out.attempted > 0;

  auto put = [&out](const std::string& name, double value, const char* unit) {
    out.metrics[name] = Metric{value, unit};
  };
  if (!cfg.trace) {
    put("setup_s", quantile(setUps.seconds, 0.5), "s");
    put("sessions_per_s", rate, "1/s");
    put("request_ms_p50", p50(h, "request_ms"), "ms");
    put("request_ms_p99", p99(h, "request_ms"), "ms");
    put("peak_rss_mb", peakRssMb(), "MB");
    put("backlight_saved_pct", h.power.savedPct(), "%");
    put("perceived_psnr_db", h.quality.meanDb(), "dB");
    return out;
  }

  // Self time per span name, from the traced pass.
  const std::map<std::string, std::int64_t> self = rec->selfNsByName();
  double total = 0.0;
  for (const auto& [name, ns] : self) {
    if (name.rfind("replay.", 0) != 0) total += static_cast<double>(ns);
  }
  std::map<std::string, double> layerNs;
  for (const auto& [name, ns] : self) {
    if (name.rfind("replay.", 0) == 0) continue;
    out.selfShare[name] = total > 0.0 ? static_cast<double>(ns) / total : 0.0;
    layerNs[name.substr(0, name.find('.'))] += static_cast<double>(ns);
  }
  std::string top;
  double topNs = -1.0;
  for (const auto& [layer, ns] : layerNs) {
    if (ns > topNs) {
      topNs = ns;
      top = layer;
    }
  }
  double joinNs = 0.0, joinSelfNs = 0.0;
  {
    const std::vector<std::int64_t> selfNs = rec->selfNs();
    const auto& spans = rec->spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (std::string_view(spans[i].name) != "scheduler.join") continue;
      joinNs += static_cast<double>(spans[i].endNs - spans[i].startNs);
      joinSelfNs += static_cast<double>(selfNs[i]);
    }
  }

  put("core.ingest_ms_per_clip", quantile(setUps.ingestMsPerClip, 0.5), "ms");
  put("core.track_fill_ms_p50", p50(h, "core.track_fill_ms"), "ms");
  const double hits = h.sums["track_hits"], misses = h.sums["track_misses"];
  put("core.track_hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0.0,
      "ratio");
  put("core.track_lookups", hits + misses, "count");
  put("core.compensate_ms_p50", p50(h, "core.compensate_ms"), "ms");
  put("core.track_decode_us_p50", p50(h, "core.track_decode_us"), "us");
  put("core.schedule_us_p50", p50(h, "core.schedule_us"), "us");
  put("media.encode_ms_p50", p50(h, "media.encode_ms"), "ms");
  put("media.encode_blocks_per_ms", ratio(h, "encode_blocks", "encode_ms"),
      "blocks/ms");
  put("media.decode_ms_p50", p50(h, "media.decode_ms"), "ms");
  put("media.decode_blocks_per_ms", ratio(h, "decode_blocks", "decode_ms"),
      "blocks/ms");
  put("media.video_bytes_per_frame", ratio(h, "video_bytes", "video_frames"),
      "bytes");
  put("power.complexity_us_p50", p50(h, "power.complexity_us"), "us");
  put("stream.serve_miss_ms_p50", p50(h, "stream.serve_miss_ms"), "ms");
  put("stream.serve_miss_ms_p99", p99(h, "stream.serve_miss_ms"), "ms");
  put("stream.serve_unexplained_share", joinNs > 0 ? joinSelfNs / joinNs : 0.0,
      "ratio");
  put("stream.mux_us_p50", p50(h, "stream.mux_us"), "us");
  put("stream.demux_us_p50", p50(h, "stream.demux_us"), "us");
  put("stream.serve_hit_us_p50", p50(h, "stream.serve_hit_us"), "us");
  put("stream.serve_hit_bytes", ratio(h, "serve_hit_bytes", "serve_hits"),
      "bytes");
  put("stream.sched_join_us_p50", p50(h, "stream.sched_join_us"), "us");
  put("stream.sched_tick_us_p50", p50(h, "stream.sched_tick_us"), "us");
  put("stream.sched_tick_us_p99", p99(h, "stream.sched_tick_us"), "us");
  put("stream.session_ticks_per_session", ratio(h, "session_ticks", "sessions"),
      "count");
  put("stream.peak_concurrent_sessions", h.sums["peak_concurrent"], "count");
  put("stream.unique_streams", h.sums["unique_streams"], "count");
  put("stream.startup_s_p50", p50(h, "stream.startup_s"), "s");
  put("stream.startup_s_p99", p99(h, "stream.startup_s"), "s");
  put("stream.stalls_per_session", ratio(h, "stalls", "sessions"), "count");
  put("stream.stall_s_per_session", ratio(h, "stall_s", "sessions"), "s");
  put("stream.fanout_ms_p50", p50(h, "stream.fanout_ms"), "ms");
  put("stream.fanout_clients_per_render",
      ratio(h, "fanout_clients", "fanout_renders"), "ratio");
  put("stream.receive_mutated_ms_p50", p50(h, "stream.receive_mutated_ms"),
      "ms");
  put("stream.receive_degraded_ratio", ratio(h, "degraded", "mutated"), "ratio");
  put("trace.overhead_pct",
      rate > 0.0 ? 100.0 * (untracedRate / rate - 1.0) : 0.0, "%");
  put("trace.top_layer_expected",
      top == expectedTopLayer(cfg.workload) ? 1.0 : 0.0, "count");
  for (const char* layer :
       {"core.annotation_for", "core.compensate", "core.schedule",
        "media.encode", "media.decode", "power.complexity", "scheduler.join",
        "scheduler.tick", "bench.step", "stream.mux", "stream.demux",
        "server.serve_hit", "client.receive", "proxy.fanout"}) {
    const auto it = out.selfShare.find(layer);
    put(std::string("self_pct.") + layer,
        it == out.selfShare.end() ? 0.0 : 100.0 * it->second, "%");
  }

  if (!cfg.outDir.empty()) {
    const std::string stem = cfg.outDir + "/" + cfg.workload + "-seed" +
                             std::to_string(cfg.seed);
    std::ofstream trace(stem + ".trace.json");
    rec->writeChromeTrace(trace, kMaxWrittenSpans);
    std::ofstream layers(stem + ".layers.json");
    layers.precision(17);
    layers << "{\"provenance\":" << provenanceJson(cfg)
           << ",\"spans\":" << rec->spans().size()
           << ",\"spans_written\":"
           << std::min(kMaxWrittenSpans, rec->spans().size())
           << ",\"top_layer\":\"" << top << "\",\"expected_top_layer\":\""
           << expectedTopLayer(cfg.workload) << "\",\"self_share\":{";
    bool firstEntry = true;
    for (const auto& [name, share] : out.selfShare) {
      layers << (firstEntry ? "" : ",") << "\"" << name << "\":" << share;
      firstEntry = false;
    }
    layers << "},\"metrics\":{";
    firstEntry = true;
    for (const auto& [name, m] : out.metrics) {
      layers << (firstEntry ? "" : ",") << "\"" << name
             << "\":{\"value\":" << m.value << ",\"unit\":\"" << m.unit
             << "\"}";
      firstEntry = false;
    }
    layers << "}}\n";
  }
  out.topLayer = top;
  return out;
}

}  // namespace perfbench
