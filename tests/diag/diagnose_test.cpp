// Attribution engine unit tests on synthetic traces: evidence priority,
// capacity predicates, carry-forward caps, lookback, and determinism.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "diag/diagnose.h"
#include "obs/observer.h"

namespace vodx::diag {
namespace {

obs::Event event(Seconds t, obs::Category category, obs::EventKind kind,
                 const char* name, int track,
                 std::vector<obs::Field> fields = {}) {
  obs::Event e;
  e.sim_time = t;
  e.category = category;
  e.kind = kind;
  e.name = name;
  e.track = track;
  e.fields = std::move(fields);
  return e;
}

obs::Event capacity(Seconds t, double mbps) {
  return event(t, obs::Category::kLink, obs::EventKind::kCounter,
               "link.capacity_mbps", 0, {obs::Field::n("value", mbps)});
}

/// Diagnoses synthetic events the way a session's trace ring holds them.
Diagnosis diagnose_events(const core::SessionResult& r,
                          const std::vector<obs::Event>& events,
                          const std::optional<faults::FaultPlan>& plan = {}) {
  obs::Observer observer;
  for (const obs::Event& e : events) observer.trace.emit(e);
  return diagnose(r, observer, plan);
}

/// A session that played from t=0 with one stall and a 1 Mbps bottom rung.
core::SessionResult result_with_stall(Seconds start, Seconds end,
                                      Seconds session_end = 120) {
  core::SessionResult r;
  r.session_end = session_end;
  r.events.session_start = 0;
  r.events.playback_started = 0;
  r.events.stalls.push_back({start, end});
  core::AnalyzedTrack rung;
  rung.level = 0;
  rung.declared_bitrate = 1e6;
  r.traffic.video_tracks.push_back(rung);
  return r;
}

TEST(Diagnose, CleanSessionHasNoProblemTime) {
  core::SessionResult r;
  r.session_end = 60;
  r.events.session_start = 0;
  r.events.playback_started = 0;
  const Diagnosis d = diagnose_events(r, {});
  EXPECT_TRUE(d.intervals.empty());
  EXPECT_DOUBLE_EQ(d.problem_s(), 0);
  EXPECT_DOUBLE_EQ(d.attributed_fraction(), 1);
  EXPECT_DOUBLE_EQ(d.stall_attributed_fraction(), 1);
}

TEST(Diagnose, SpansTileEveryProblemInterval) {
  core::SessionResult r = result_with_stall(10, 14);
  std::vector<obs::Event> events = {capacity(0, 5.0), capacity(12, 0.2)};
  const Diagnosis d = diagnose_events(r, events);
  ASSERT_EQ(d.intervals.size(), 1u);
  const IntervalDiagnosis& stall = d.intervals[0];
  ASSERT_FALSE(stall.spans.empty());
  EXPECT_DOUBLE_EQ(stall.spans.front().start, 10);
  EXPECT_DOUBLE_EQ(stall.spans.back().end, 14);
  for (std::size_t i = 1; i < stall.spans.size(); ++i) {
    EXPECT_DOUBLE_EQ(stall.spans[i].start, stall.spans[i - 1].end);
  }
}

TEST(Diagnose, OutsideCapacityStepsPrecedeTracedOnesAtEqualStamps) {
  core::SessionResult r = result_with_stall(10, 14);
  obs::Observer observer;
  observer.trace.emit(capacity(10, 5.0));
  // The outside series alone says deficit from t=10; the traced 5 Mbps
  // step at the same stamp lands after it and wins.
  const std::vector<Step> outside = {{0, 5.0}, {10, 0.1}};
  const Diagnosis merged = diagnose(r, observer, {}, outside);
  EXPECT_DOUBLE_EQ(
      merged.stall_blamed_s[static_cast<int>(Cause::kLinkDeficit)], 0);
  const Diagnosis alone = diagnose(r, obs::Observer(), {}, outside);
  EXPECT_DOUBLE_EQ(alone.stall_blamed_s[static_cast<int>(Cause::kLinkDeficit)],
                   4);
}

TEST(Diagnose, FaultEvidenceOutranksCapacityDeficit) {
  core::SessionResult r = result_with_stall(10, 14);
  // Capacity argues link.deficit for the whole stall, but a fired fault
  // covers it too — the more specific cause must win.
  std::vector<obs::Event> events = {
      capacity(0, 0.1),
      event(10, obs::Category::kFault, obs::EventKind::kInstant,
            "fault.error", 0)};
  const Diagnosis d = diagnose_events(r, events);
  EXPECT_DOUBLE_EQ(d.stall_blamed_s[static_cast<int>(Cause::kFaultInjected)],
                   4);
  EXPECT_DOUBLE_EQ(d.stall_blamed_s[static_cast<int>(Cause::kLinkDeficit)],
                   0);
  ASSERT_EQ(d.intervals.size(), 1u);
}

TEST(Diagnose, StartupFirstByteWaitBlamedOnOrigin) {
  core::SessionResult r;
  r.session_end = 60;
  r.events.session_start = 0;
  r.events.playback_started = 2;
  std::vector<obs::Event> events = {
      event(0, obs::Category::kTcp, obs::EventKind::kSpanBegin,
            "tcp.transfer", 3),
      event(2, obs::Category::kTcp, obs::EventKind::kSpanEnd, "tcp.transfer",
            3,
            {obs::Field::n("wait_s", 1.8), obs::Field::n("extra_wait_s", 1.0),
             obs::Field::n("restart", 0),
             obs::Field::n("sender_limited_s", 0),
             obs::Field::n("link_limited_s", 0.2)})};
  const Diagnosis d = diagnose_events(r, events);
  ASSERT_EQ(d.intervals.size(), 1u);
  EXPECT_TRUE(d.intervals[0].startup);
  EXPECT_GE(d.blamed_s[static_cast<int>(Cause::kOriginLatency)], 1.8);
  // Injected server latency (extra_wait_s above one RTT) is near-certain.
  EXPECT_GT(d.confidence[static_cast<int>(Cause::kOriginLatency)], 0.8);
  EXPECT_DOUBLE_EQ(d.attributed_fraction(), 1);
}

TEST(Diagnose, CapacityBelowLowestRungIsLinkDeficit) {
  core::SessionResult r = result_with_stall(20, 30);
  std::vector<obs::Event> events = {capacity(0, 5.0), capacity(18, 0.2)};
  const Diagnosis d = diagnose_events(r, events);
  EXPECT_DOUBLE_EQ(d.stall_blamed_s[static_cast<int>(Cause::kLinkDeficit)],
                   10);
  EXPECT_DOUBLE_EQ(d.stall_attributed_fraction(), 1);
}

TEST(Diagnose, FetchingAboveCapacityIsAbrOverestimate) {
  core::SessionResult r = result_with_stall(10, 14);
  // 1.5 Mbps sustains the 1 Mbps bottom rung but not the 3 Mbps rung the
  // player actually requested.
  core::SegmentDownload download;
  download.type = media::ContentType::kVideo;
  download.level = 4;
  download.declared_bitrate = 3e6;
  download.requested_at = 5;
  r.traffic.downloads.push_back(download);
  std::vector<obs::Event> events = {capacity(0, 1.5)};
  const Diagnosis d = diagnose_events(r, events);
  EXPECT_DOUBLE_EQ(
      d.stall_blamed_s[static_cast<int>(Cause::kAbrOverestimate)], 4);
  EXPECT_DOUBLE_EQ(d.stall_blamed_s[static_cast<int>(Cause::kLinkDeficit)],
                   0);
}

TEST(Diagnose, IdleRestartChargesTheRampWindow) {
  core::SessionResult r = result_with_stall(10, 11);
  std::vector<obs::Event> events = {
      capacity(0, 5.0),
      event(9.9, obs::Category::kTcp, obs::EventKind::kInstant,
            "tcp.idle_restart", 2, {obs::Field::n("idle_s", 12.0)})};
  const Diagnosis d = diagnose_events(r, events);
  EXPECT_DOUBLE_EQ(
      d.stall_blamed_s[static_cast<int>(Cause::kTcpSlowStartRestart)], 1);
}

TEST(Diagnose, BlackoutWindowsComeFromThePlan) {
  // Blackouts carve the bandwidth trace and fire no injector events; the
  // plan is the only evidence they existed.
  core::SessionResult r = result_with_stall(105, 115);
  faults::FaultPlan plan;
  plan.name = "blackout";
  plan.blackouts.push_back({100, 20});
  const Diagnosis d = diagnose_events(r, {}, plan);
  EXPECT_DOUBLE_EQ(d.stall_blamed_s[static_cast<int>(Cause::kFaultInjected)],
                   10);
  const Diagnosis without = diagnose_events(r, {});
  EXPECT_DOUBLE_EQ(
      without.stall_blamed_s[static_cast<int>(Cause::kFaultInjected)], 0);
}

TEST(Diagnose, FaultCarryForwardIsCapped) {
  // One fault at stall start, influence 8 s: direct evidence covers
  // [10, 18), carry-forward may extend at most another influence window, so
  // a 30 s stall keeps an unknown tail instead of blaming the fault for
  // everything.
  core::SessionResult r = result_with_stall(10, 40);
  std::vector<obs::Event> events = {
      event(10, obs::Category::kFault, obs::EventKind::kInstant,
            "fault.reset", 0)};
  const Diagnosis d = diagnose_events(r, events);
  EXPECT_DOUBLE_EQ(d.stall_blamed_s[static_cast<int>(Cause::kFaultInjected)],
                   16);
  EXPECT_DOUBLE_EQ(d.stall_blamed_s[static_cast<int>(Cause::kUnknown)], 14);
  EXPECT_LT(d.stall_attributed_fraction(), 1);
}

TEST(Diagnose, LookbackResolvesBlindStallOpening) {
  // The deficit that drained the buffer ended right before the stall
  // surfaced; the stall window itself holds no evidence. The pre-interval
  // lookback must find the deficit and carry it in (at reduced confidence).
  core::SessionResult r = result_with_stall(10, 20);
  std::vector<obs::Event> events = {capacity(0, 0.2), capacity(10, 5.0)};
  const Diagnosis d = diagnose_events(r, events);
  EXPECT_DOUBLE_EQ(d.stall_blamed_s[static_cast<int>(Cause::kLinkDeficit)],
                   10);
  ASSERT_EQ(d.intervals.size(), 1u);
  const BlameSpan& first = d.intervals[0].spans.front();
  EXPECT_LT(first.confidence, 0.95);
  EXPECT_NE(first.note.find("pre-interval"), std::string::npos);
}

TEST(Diagnose, OngoingStallRunsToSessionEnd) {
  core::SessionResult r = result_with_stall(100, -1, /*session_end=*/120);
  std::vector<obs::Event> events = {capacity(0, 0.2)};
  const Diagnosis d = diagnose_events(r, events);
  ASSERT_EQ(d.intervals.size(), 1u);
  EXPECT_DOUBLE_EQ(d.intervals[0].end, 120);
  EXPECT_DOUBLE_EQ(d.stall_s(), 20);
}

TEST(Diagnose, NeverStartedSessionIsOneStartupInterval) {
  core::SessionResult r;
  r.session_end = 30;
  r.events.session_start = 0;
  r.events.playback_started = -1;
  const Diagnosis d = diagnose_events(r, {});
  ASSERT_EQ(d.intervals.size(), 1u);
  EXPECT_TRUE(d.intervals[0].startup);
  EXPECT_DOUBLE_EQ(d.intervals[0].duration(), 30);
}

TEST(Diagnose, DiagnosisTextIsDeterministic) {
  core::SessionResult r = result_with_stall(10, 14);
  std::vector<obs::Event> events = {
      capacity(0, 0.2),
      event(11, obs::Category::kFault, obs::EventKind::kInstant,
            "fault.error", 0)};
  const std::string a = diagnosis_text(diagnose_events(r, events));
  const std::string b = diagnosis_text(diagnose_events(r, events));
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("root-cause attribution"), std::string::npos);
}

TEST(Diagnose, ObserverOverloadRecordsRingDrops) {
  core::SessionResult r;
  r.session_end = 10;
  r.events.session_start = 0;
  r.events.playback_started = 0;
  obs::Observer observer(/*trace_capacity=*/2);
  for (int i = 0; i < 5; ++i) {
    observer.trace.instant(i, obs::Category::kPlayer, "tick", 0);
  }
  const Diagnosis d = diagnose(r, observer);
  EXPECT_EQ(d.trace_dropped, 3u);
  const std::string text = diagnosis_text(d);
  EXPECT_NE(text.find("WARNING"), std::string::npos);
}

}  // namespace
}  // namespace vodx::diag
