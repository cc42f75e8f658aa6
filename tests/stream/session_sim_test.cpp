#include "stream/session_sim.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "media/clipgen.h"

namespace anno::stream {
namespace {

struct Rig {
  media::VideoClip clip =
      media::generatePaperClip(media::PaperClip::kOfficeXp, 0.08, 48, 36);
  media::EncodedClip encoded = media::encodeClip(clip, {75, 12, 1.5});
  Link wifi = makeReferencePath().lastHop();

  /// Average stream bitrate in bits/s.
  [[nodiscard]] double bitrate() const {
    return static_cast<double>(encoded.totalBytes()) * 8.0 /
           clip.durationSeconds();
  }
};

TEST(BandwidthTrace, ConstantAndValidation) {
  const BandwidthTrace t = BandwidthTrace::constant(5e6);
  EXPECT_DOUBLE_EQ(t.at(0.0), 5e6);
  EXPECT_DOUBLE_EQ(t.at(100.0), 5e6);
  EXPECT_THROW((void)BandwidthTrace::constant(0.0), std::invalid_argument);
}

TEST(BandwidthTrace, PeriodicDipShape) {
  const BandwidthTrace t =
      BandwidthTrace::periodicDip(10e6, 1e6, 1.0, 0.2);
  EXPECT_DOUBLE_EQ(t.at(0.05), 1e6);   // inside the dip
  EXPECT_DOUBLE_EQ(t.at(0.5), 10e6);   // outside
  EXPECT_DOUBLE_EQ(t.at(1.05), 1e6);   // next period's dip
  EXPECT_THROW((void)BandwidthTrace::periodicDip(10e6, 1e6, 1.0, 2.0),
               std::invalid_argument);
}

/// periodicDip as it was once built: 100 baked copies of the period, read
/// by index with flat extrapolation past the end.  The one-period trace
/// must answer every query exactly as this did.
struct BakedPeriodicDip {
  std::vector<double> rates;

  BakedPeriodicDip(double bitsPerSec, double dipBitsPerSec,
                   double periodSeconds, double dipSeconds) {
    const int stepsPerPeriod =
        std::max(1, static_cast<int>(periodSeconds / 0.01));
    const int dipSteps = static_cast<int>(dipSeconds / 0.01);
    for (int period = 0; period < 100; ++period) {
      for (int s = 0; s < stepsPerPeriod; ++s) {
        rates.push_back(s < dipSteps ? dipBitsPerSec : bitsPerSec);
      }
    }
  }

  [[nodiscard]] double at(double t) const {
    if (t < 0.0) return rates.front();
    const auto idx = static_cast<std::size_t>(t / 0.01);
    return idx < rates.size() ? rates[idx] : rates.back();
  }
};

TEST(BandwidthTrace, PeriodicDipMatchesBakedExpansion) {
  struct Shape {
    double rate, dipRate, period, dip;
  };
  // The commute class's shape, a dip filling the whole period, a period
  // shorter than one step, a dip-free period and a non-step-aligned period.
  const Shape shapes[] = {{4e6, 1e6, 2.0, 0.5},  {10e6, 1e6, 1.0, 1.0},
                          {8e6, 2e6, 0.004, 0.0}, {5e6, 0.0, 3.0, 0.0},
                          {6e6, 3e5, 1.237, 0.41}};
  for (const Shape& sh : shapes) {
    const BandwidthTrace t =
        BandwidthTrace::periodicDip(sh.rate, sh.dipRate, sh.period, sh.dip);
    const BakedPeriodicDip baked(sh.rate, sh.dipRate, sh.period, sh.dip);
    const double end = 100.0 * sh.period;
    std::vector<double> times = {-5.0, -0.01, -0.0, 0.0, end, end + 0.01,
                                 end * 3.0 + 7.5, 1e6};
    for (int i = 0; i * 0.01 < end * 1.05 + 0.5; ++i) {
      times.push_back(i * 0.01);           // step-aligned
      times.push_back(i * 0.01 + 0.0049);  // mid-step
    }
    for (double q : times) {
      ASSERT_EQ(t.at(q), baked.at(q))
          << "period " << sh.period << " dip " << sh.dip << " t " << q;
    }
  }
}

TEST(BandwidthTrace, RandomWalkBoundedAndDeterministic) {
  const BandwidthTrace a =
      BandwidthTrace::randomWalk(8e6, 0.2, 42, 0.1, 20.0);
  const BandwidthTrace b =
      BandwidthTrace::randomWalk(8e6, 0.2, 42, 0.1, 20.0);
  for (double t = 0.0; t < 20.0; t += 0.5) {
    EXPECT_DOUBLE_EQ(a.at(t), b.at(t));
    EXPECT_GE(a.at(t), 0.8e6);
    EXPECT_LE(a.at(t), 16e6);
  }
}

TEST(SessionSim, AmpleBandwidthPlaysCleanly) {
  Rig rig;
  const BandwidthTrace bw = BandwidthTrace::constant(rig.bitrate() * 10.0);
  const SessionSimResult r = simulateSession(rig.encoded, rig.wifi, bw);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.rebufferEvents, 0u);
  EXPECT_LT(r.startupDelaySeconds, 1.0);
}

TEST(SessionSim, StarvedLinkStallsButCompletes) {
  Rig rig;
  // Link carries only ~60% of the stream bitrate: stalls are inevitable,
  // but the session must still complete (it just takes longer).
  const BandwidthTrace bw = BandwidthTrace::constant(rig.bitrate() * 0.6);
  const SessionSimResult r = simulateSession(rig.encoded, rig.wifi, bw);
  EXPECT_TRUE(r.completed);
  EXPECT_GT(r.rebufferEvents, 0u);
  EXPECT_GT(r.sessionSeconds, rig.clip.durationSeconds() * 1.3);
}

TEST(SessionSim, PeriodicDipsCauseBoundedStalls) {
  Rig rig;
  const BandwidthTrace bw = BandwidthTrace::periodicDip(
      rig.bitrate() * 3.0, rig.bitrate() * 0.05, 2.0, 1.0);
  SessionSimConfig cfg;
  cfg.startupBufferSeconds = 0.25;
  cfg.bufferCapacitySeconds = 1.0;  // small buffer: dips hurt
  const SessionSimResult r =
      simulateSession(rig.encoded, rig.wifi, bw, cfg);
  EXPECT_TRUE(r.completed);
  // A LARGER buffer must absorb the same dips at least as well.
  SessionSimConfig big = cfg;
  big.bufferCapacitySeconds = 6.0;
  const SessionSimResult rBig =
      simulateSession(rig.encoded, rig.wifi, bw, big);
  EXPECT_LE(rBig.rebufferTotalSeconds, r.rebufferTotalSeconds + 1e-9);
}

TEST(SessionSim, BufferCapacityRespected) {
  Rig rig;
  SessionSimConfig cfg;
  cfg.bufferCapacitySeconds = 2.0;
  const BandwidthTrace bw = BandwidthTrace::constant(rig.bitrate() * 20.0);
  const SessionSimResult r =
      simulateSession(rig.encoded, rig.wifi, bw, cfg);
  // One frame of slack allowed (delivery completes a frame mid-tick).
  EXPECT_LE(r.maxBufferSeconds, cfg.bufferCapacitySeconds + 0.2);
}

TEST(SessionSim, PreambleDelaysStartupProportionally) {
  Rig rig;
  const BandwidthTrace bw = BandwidthTrace::constant(rig.bitrate() * 4.0);
  SessionSimConfig noAnno;
  SessionSimConfig withAnno;
  withAnno.preambleBytes = 100;  // an annotation track's worth
  SessionSimConfig huge;
  huge.preambleBytes = 500000;  // what shipping raw per-frame data would cost
  const double t0 =
      simulateSession(rig.encoded, rig.wifi, bw, noAnno).startupDelaySeconds;
  const double tAnno =
      simulateSession(rig.encoded, rig.wifi, bw, withAnno)
          .startupDelaySeconds;
  const double tHuge =
      simulateSession(rig.encoded, rig.wifi, bw, huge).startupDelaySeconds;
  EXPECT_NEAR(tAnno, t0, 0.05) << "annotations must not delay startup";
  EXPECT_GT(tHuge, t0 + 0.2) << "a bulky side channel WOULD delay startup";
}

TEST(SessionSim, AnnotationNackRecoveryHoldsStartupByWholeRtts) {
  Rig rig;
  const BandwidthTrace bw = BandwidthTrace::constant(rig.bitrate() * 4.0);
  SessionSimConfig cfg;
  cfg.preambleBytes = 3000;
  cfg.annotationBytes = 3000;  // a few packets on the 1500-byte MTU hop
  cfg.annotationDelivery.nackEnabled = true;
  cfg.annotationDelivery.rttSeconds = 0.08;

  // Reference: identical session, lossless annotation channel.
  const SessionSimResult clean =
      simulateSession(rig.encoded, rig.wifi, bw, cfg);
  EXPECT_EQ(clean.annotationPacketsLost, 0u);
  EXPECT_TRUE(clean.annotationDeliveredIntact);

  // Find a seed that actually loses an annotation packet, then check the
  // NACK recovery cost surfaces as whole-RTT startup delay.
  bool found = false;
  for (std::uint64_t seed = 1; seed <= 10 && !found; ++seed) {
    SessionSimConfig lossy = cfg;
    lossy.annotationDelivery.channel = {0.5, seed};
    const SessionSimResult r =
        simulateSession(rig.encoded, rig.wifi, bw, lossy);
    if (r.annotationPacketsLost == 0) continue;
    found = true;
    EXPECT_TRUE(r.completed);
    EXPECT_TRUE(r.annotationDeliveredIntact) << "NACK must recover";
    EXPECT_GT(r.annotationRetransmits, 0u);
    EXPECT_GE(r.annotationNackRounds, 1u);
    EXPECT_GE(r.startupDelaySeconds,
              clean.startupDelaySeconds +
                  static_cast<double>(r.annotationNackRounds) *
                      lossy.annotationDelivery.rttSeconds -
                  0.01);
  }
  EXPECT_TRUE(found) << "50% loss never hit an annotation packet in 10 seeds";
}

TEST(SessionSim, AnnotationLossWithoutNackStaysLostButDoesNotStall) {
  Rig rig;
  const BandwidthTrace bw = BandwidthTrace::constant(rig.bitrate() * 4.0);
  SessionSimConfig cfg;
  cfg.preambleBytes = 3000;
  cfg.annotationBytes = 3000;
  cfg.annotationDelivery.nackEnabled = false;

  const SessionSimResult clean =
      simulateSession(rig.encoded, rig.wifi, bw, cfg);
  bool found = false;
  for (std::uint64_t seed = 1; seed <= 10 && !found; ++seed) {
    SessionSimConfig lossy = cfg;
    lossy.annotationDelivery.channel = {0.5, seed};
    const SessionSimResult r =
        simulateSession(rig.encoded, rig.wifi, bw, lossy);
    if (r.annotationPacketsLost == 0) continue;
    found = true;
    EXPECT_TRUE(r.completed);
    EXPECT_FALSE(r.annotationDeliveredIntact)
        << "without NACK the loss must surface to the client";
    EXPECT_EQ(r.annotationRetransmits, 0u);
    EXPECT_EQ(r.annotationNackRounds, 0u);
    // No recovery, no head-of-line hold: startup is unaffected.
    EXPECT_NEAR(r.startupDelaySeconds, clean.startupDelaySeconds, 0.01);
  }
  EXPECT_TRUE(found);
}

TEST(SessionSim, AnnotationChannelDefaultsAreInert) {
  // Default config (no annotation bytes on the lossy channel) must behave
  // exactly as before the robustness work.
  Rig rig;
  const BandwidthTrace bw = BandwidthTrace::constant(rig.bitrate() * 4.0);
  const SessionSimResult r = simulateSession(rig.encoded, rig.wifi, bw);
  EXPECT_EQ(r.annotationPacketsLost, 0u);
  EXPECT_EQ(r.annotationRetransmits, 0u);
  EXPECT_EQ(r.annotationNackRounds, 0u);
  EXPECT_TRUE(r.annotationDeliveredIntact);
}

TEST(SessionSim, Validation) {
  Rig rig;
  const BandwidthTrace bw = BandwidthTrace::constant(1e6);
  media::EncodedClip empty;
  EXPECT_THROW((void)simulateSession(empty, rig.wifi, bw),
               std::invalid_argument);
  SessionSimConfig bad;
  bad.tickSeconds = 0.0;
  EXPECT_THROW((void)simulateSession(rig.encoded, rig.wifi, bw, bad),
               std::invalid_argument);
  bad = SessionSimConfig{};
  bad.bufferCapacitySeconds = bad.startupBufferSeconds;
  EXPECT_THROW((void)simulateSession(rig.encoded, rig.wifi, bw, bad),
               std::invalid_argument);
}

}  // namespace
}  // namespace anno::stream
