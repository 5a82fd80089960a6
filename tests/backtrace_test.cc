// Tests for the back-tracing engine (Section 4): message complexity 2E + P,
// back thresholds, visited marks, branching, concurrent traces, timeouts,
// and fault tolerance.
#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <string>
#include <vector>

#include "core/inspect.h"
#include "core/system.h"
#include "workload/builders.h"
#include "workload/figures.h"

namespace dgc {
namespace {

CollectorConfig Config() {
  CollectorConfig config;
  config.suspicion_threshold = 2;
  config.estimated_cycle_length = 3;
  config.back_threshold_increment = 2;
  return config;
}

/// Runs rounds without back tracing until every ioref of the cycle is deep
/// into suspicion, then returns — so tests can trigger one trace explicitly
/// and measure it in isolation.
void RipenSuspicion(System& system, int rounds = 12) {
  system.RunRounds(rounds);
}

// --- Message complexity (§4.6): 2E + P --------------------------------------

struct RingCase {
  std::size_t sites;
  std::size_t objects_per_site;
};

class MessageComplexity : public ::testing::TestWithParam<RingCase> {};

TEST_P(MessageComplexity, RingCostsTwoPerEdgePlusReports) {
  const auto [site_count, objects_per_site] = GetParam();
  CollectorConfig config = Config();
  config.estimated_cycle_length = static_cast<Distance>(site_count + 2);
  config.enable_back_tracing = false;  // ripen manually first
  System system(site_count, config);
  const auto cycle = workload::BuildCycle(
      system, {.sites = site_count, .objects_per_site = objects_per_site});
  RipenSuspicion(system, static_cast<int>(site_count) + 10);

  // One explicit trace from site 0's outref; count only its messages.
  system.network().ResetStats();
  Site& initiator = system.site(0);
  const ObjectId start = initiator.tables().outrefs().begin()->first;
  initiator.back_tracer().StartTrace(start);
  system.SettleNetwork();

  const NetworkStats& stats = system.network().stats();
  // Ring: E = site_count inter-site references; every site participates.
  const std::uint64_t expected_edges = site_count;
  EXPECT_EQ(stats.count_of<BackLocalCallMsg>(), expected_edges);
  EXPECT_EQ(stats.count_of<BackReplyMsg>(), expected_edges);
  // Report phase: one message per participant; the initiator's own report is
  // a self-delivery, so inter-site reports = P - 1.
  EXPECT_EQ(stats.count_of<BackReportMsg>(), site_count - 1);
  // Nothing else moved.
  EXPECT_EQ(stats.inter_site_sent,
            2 * expected_edges + (site_count - 1));
}

INSTANTIATE_TEST_SUITE_P(
    Rings, MessageComplexity,
    ::testing::Values(RingCase{2, 1}, RingCase{3, 1}, RingCase{4, 2},
                      RingCase{6, 1}, RingCase{8, 3}));

TEST(MessageComplexityTest, DenseCycleCountsEveryEdgeOnce) {
  // Complete digraph over 4 sites (one object per site, each pointing at all
  // others): E = 12 inter-site references, P = 4 sites.
  CollectorConfig config = Config();
  config.estimated_cycle_length = 6;
  config.enable_back_tracing = false;
  System system(4, config);
  std::vector<ObjectId> objects;
  for (SiteId s = 0; s < 4; ++s) objects.push_back(system.NewObject(s, 3));
  for (std::size_t i = 0; i < 4; ++i) {
    std::size_t slot = 0;
    for (std::size_t j = 0; j < 4; ++j) {
      if (i != j) system.Wire(objects[i], slot++, objects[j]);
    }
  }
  RipenSuspicion(system, 14);
  system.network().ResetStats();
  Site& initiator = system.site(0);
  initiator.back_tracer().StartTrace(
      initiator.tables().outrefs().begin()->first);
  system.SettleNetwork();
  const NetworkStats& stats = system.network().stats();
  EXPECT_EQ(stats.count_of<BackLocalCallMsg>(), 12u);
  EXPECT_EQ(stats.count_of<BackReplyMsg>(), 12u);
  EXPECT_EQ(stats.count_of<BackReportMsg>(), 3u);
}

// --- Back thresholds (§4.3) --------------------------------------------------

TEST(BackThresholdTest, NoTraceStartsBeforeThresholdCrossed) {
  CollectorConfig config = Config();
  config.estimated_cycle_length = 20;  // D2 = 22: far away
  System system(2, config);
  workload::BuildCycle(system, {.sites = 2, .objects_per_site = 1});
  system.RunRounds(10);  // distances ~10 < 22
  EXPECT_EQ(system.AggregateBackTracerStats().traces_started, 0u);
}

TEST(BackThresholdTest, LiveSuspectStopsGeneratingTraces) {
  // A live two-site loop whose distances sit just above the suspicion
  // threshold: early traces return Live and bump thresholds; eventually the
  // threshold exceeds the (stable) distance and tracing stops. The bump is
  // the one rule that quiets a settled suspect, so behind a long chain it
  // must also bound how many traces start before the quiet.
  struct Case {
    std::size_t hops;  // remote objects between the root and the loop
    Distance increment;
    int rounds;
    std::uint64_t max_started;
  };
  const Case cases[] = {
      {1, 3, 30, std::numeric_limits<std::uint64_t>::max()},
      {12, 1, 70, 24},
      {12, 2, 70, 17},
      {12, 4, 70, 14},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(::testing::Message() << c.hops << " hops, increment "
                                      << c.increment);
    CollectorConfig config = Config();
    config.suspicion_threshold = 1;  // make the live loop suspected
    config.estimated_cycle_length = 1;
    config.back_threshold_increment = c.increment;
    System system(3, config);
    // root@2 -> hops alternating between sites 0 and 1, the last on site 1
    // -> loop {p@0 <-> q@1}.
    const ObjectId root = system.NewObject(2, 1);
    system.SetPersistentRoot(root);
    ObjectId tail = root;
    for (std::size_t i = c.hops; i > 0; --i) {
      const ObjectId hop = system.NewObject(static_cast<SiteId>(i % 2), 1);
      system.Wire(tail, 0, hop);
      tail = hop;
    }
    const ObjectId p = system.NewObject(0, 1);
    const ObjectId q = system.NewObject(1, 1);
    system.Wire(tail, 0, p);
    system.Wire(p, 0, q);
    system.Wire(q, 0, p);

    system.RunRounds(c.rounds);
    const BackTracerStats stats = system.AggregateBackTracerStats();
    EXPECT_GT(stats.traces_completed_live, 0u);
    EXPECT_EQ(stats.traces_completed_garbage, 0u);
    EXPECT_LE(stats.traces_started, c.max_started);
    // Thresholds must have risen above the stable distances: in the last
    // ten rounds no new trace may start.
    system.RunRounds(10);
    EXPECT_EQ(system.AggregateBackTracerStats().traces_started,
              stats.traces_started);
    EXPECT_TRUE(system.ObjectExists(p));
    EXPECT_TRUE(system.ObjectExists(q));
    EXPECT_TRUE(system.CheckSafety().empty()) << system.CheckSafety();
  }
}

TEST(BackThresholdTest, GarbageRetriesUntilCollected) {
  // Even if an early trace aborts Live (premature), garbage keeps
  // generating traces and is eventually collected (§4.3: the back threshold
  // is an optimization and does not compromise completeness).
  CollectorConfig config = Config();
  config.suspicion_threshold = 6;
  config.estimated_cycle_length = 0;  // D2 == D: traces start immediately —
                                      // deliberately premature
  config.back_threshold_increment = 1;
  System system(3, config);
  const auto cycle =
      workload::BuildCycle(system, {.sites = 3, .objects_per_site = 1});
  system.RunRounds(40);
  for (const ObjectId id : cycle.objects) {
    EXPECT_FALSE(system.ObjectExists(id));
  }
}

// --- Branching (Figure 3) ----------------------------------------------------

TEST(BranchingTest, Figure3TraceReturnsLiveViaRootPath) {
  CollectorConfig config = Config();
  config.enable_back_tracing = false;
  System system(5, config);
  const auto w = workload::BuildFigure3(system);
  RipenSuspicion(system, 10);

  // Start a trace from outref d at site R(2): it must branch at inref c
  // (sources P and Q) and return Live through the root path into a.
  Site& r = system.site(2);
  ASSERT_NE(r.tables().FindOutref(w.d), nullptr);
  bool completed = false;
  BackResult outcome = BackResult::kGarbage;
  r.back_tracer().set_outcome_observer(
      [&](const TraceOutcome& trace_outcome) {
        completed = true;
        outcome = trace_outcome.result;
      });
  r.back_tracer().StartTrace(w.d);
  system.SettleNetwork();
  EXPECT_TRUE(completed);
  EXPECT_EQ(outcome, BackResult::kLive);
  // Live outcome: visited marks cleared everywhere, nothing flagged.
  for (SiteId s = 0; s < 5; ++s) {
    for (const auto& [obj, entry] : system.site(s).tables().inrefs()) {
      EXPECT_EQ(system.site(s).back_tracer().VisitCount(IorefKind::kInref, obj),
                0u);
      EXPECT_FALSE(entry.garbage_flagged);
    }
  }
}

TEST(BranchingTest, VisitedMarksPreventInfiniteLooping) {
  // Figure 2's two interlocked cycles: a trace closes over them exactly once.
  CollectorConfig config = Config();
  config.enable_back_tracing = false;
  System system(3, config);
  const auto w = workload::BuildFigure2(system);
  RipenSuspicion(system, 10);
  Site& q = system.site(1);
  ASSERT_NE(q.tables().FindOutref(w.c), nullptr);
  bool completed = false;
  q.back_tracer().set_outcome_observer(
      [&](const TraceOutcome&) { completed = true; });
  q.back_tracer().StartTrace(w.c);
  system.SettleNetwork();
  EXPECT_TRUE(completed);
  EXPECT_TRUE(q.back_tracer().idle());
}

TEST(BranchingTest, PinnedBranchAnswersLiveBesideSlowGarbageRing) {
  // A trace from outref y at site 0 forks at y's inset {x1, x2}. The fast
  // branch finds x1's holder at site 2 pinned clean by a mutator, one
  // remote round trip away; the slow branch walks a garbage ring over sites
  // 4-7. The frame answers Live once both branches have replied, so every
  // participant gets the report and no visited mark is left behind.
  CollectorConfig config;
  config.suspicion_threshold = 2;
  config.estimated_cycle_length = 8;
  config.enable_back_tracing = false;  // one manual trace
  NetworkConfig net;
  net.latency = 50;
  System system(8, config, net);
  const ObjectId y = system.NewObject(1, 0);
  const ObjectId x1 = system.NewObject(0, 1);
  const ObjectId x2 = system.NewObject(0, 1);
  system.Wire(x1, 0, y);
  system.Wire(x2, 0, y);
  // x1 is held from site 2 by a member of a {2, 3} garbage cycle, so its
  // inref distance ripens high.
  const ObjectId g2 = system.NewObject(2, 2);
  const ObjectId g3 = system.NewObject(3, 1);
  system.Wire(g2, 0, g3);
  system.Wire(g3, 0, g2);
  system.Wire(g2, 1, x1);
  // x2 is held from a garbage ring spanning sites 4-7.
  const auto ring = workload::BuildCycle(
      system, {.sites = 4, .objects_per_site = 1, .first_site = 4});
  system.Wire(ring.objects[0], 1, x2);
  RipenSuspicion(system, 10);

  // A mutator variable takes hold of x1 at site 2: pinned clean, but site 2
  // runs no further local trace, so x1's inref at site 0 keeps its stale
  // suspected distance and the branch must discover the pin remotely.
  system.site(2).PinOutref(x1);
  Site& site0 = system.site(0);
  ASSERT_NE(site0.tables().FindOutref(y), nullptr);
  bool completed = false;
  TraceOutcome outcome;
  site0.back_tracer().set_outcome_observer([&](const TraceOutcome& result) {
    completed = true;
    outcome = result;
  });
  site0.back_tracer().StartTrace(y);
  system.SettleNetwork();
  ASSERT_TRUE(completed);
  EXPECT_EQ(outcome.result, BackResult::kLive);
  EXPECT_EQ(outcome.participants, 6u);  // sites 0, 2 and the ring's 4-7
  for (SiteId s = 0; s < 8; ++s) {
    const BackTracer& tracer = system.site(s).back_tracer();
    for (const auto& [obj, entry] : system.site(s).tables().inrefs()) {
      EXPECT_EQ(tracer.VisitCount(IorefKind::kInref, obj), 0u)
          << "site " << s << " inref " << obj;
      EXPECT_FALSE(entry.garbage_flagged) << "site " << s << " inref " << obj;
    }
    for (const auto& [ref, entry] : system.site(s).tables().outrefs()) {
      EXPECT_EQ(tracer.VisitCount(IorefKind::kOutref, ref), 0u)
          << "site " << s << " outref " << ref;
    }
  }
}

// --- Concurrent traces (§4.7) -------------------------------------------------

TEST(ConcurrentTracesTest, TwoSimultaneousTracesOnOneCycleAreHarmless) {
  CollectorConfig config = Config();
  config.enable_back_tracing = false;
  System system(2, config);
  const auto cycle =
      workload::BuildCycle(system, {.sites = 2, .objects_per_site = 1});
  RipenSuspicion(system, 10);
  // Both sites start traces into the same cycle at the same instant.
  system.site(0).back_tracer().StartTrace(
      system.site(0).tables().outrefs().begin()->first);
  system.site(1).back_tracer().StartTrace(
      system.site(1).tables().outrefs().begin()->first);
  system.SettleNetwork();
  const BackTracerStats stats = system.AggregateBackTracerStats();
  EXPECT_EQ(stats.traces_started, 2u);
  // At least one confirms garbage; the other may find iorefs deleted midway
  // — either way both complete and the cycle dies.
  EXPECT_GE(stats.traces_completed_garbage, 1u);
  system.RunRounds(4);
  EXPECT_FALSE(system.ObjectExists(cycle.objects[0]));
  EXPECT_FALSE(system.ObjectExists(cycle.objects[1]));
  EXPECT_TRUE(system.CheckSafety().empty()) << system.CheckSafety();
}

TEST(ConcurrentTracesTest, ManyTracesAcrossDisjointCyclesDoNotInterfere) {
  CollectorConfig config = Config();
  System system(6, config);
  std::vector<workload::CycleHandles> cycles;
  for (SiteId s = 0; s < 6; s += 2) {
    cycles.push_back(workload::BuildCycle(
        system, {.sites = 2, .objects_per_site = 1, .first_site = s}));
  }
  system.RunRounds(20);
  for (const auto& cycle : cycles) {
    for (const ObjectId id : cycle.objects) {
      EXPECT_FALSE(system.ObjectExists(id)) << id;
    }
  }
}

TEST(ConcurrentTracesTest, TriggerScanSkipsAnOutrefATraceIsVisiting) {
  CollectorConfig config = Config();
  config.enable_back_tracing = true;   // MaybeStartTraces is called by hand
  config.estimated_cycle_length = 1000;  // so no round starts a trace
  config.back_threshold_increment = 0;   // and a visit raises no threshold
  NetworkConfig net;
  net.latency = 50;
  System system(2, config, net);
  const auto cycle =
      workload::BuildCycle(system, {.sites = 2, .objects_per_site = 1});
  RipenSuspicion(system);
  ASSERT_EQ(system.AggregateBackTracerStats().traces_started, 0u);
  // Site 1's outref into the ring. Its distance now exceeds its threshold,
  // and site 1 roots no trace at it, so only a trace's mark on it can keep
  // the trigger scan from starting one there (Section 4.7).
  Site& site1 = system.site(1);
  const ObjectId o = cycle.objects[0];
  ASSERT_NE(site1.tables().FindOutref(o), nullptr);
  site1.tables().FindOutref(o)->back_threshold = 0;
  ASSERT_FALSE(site1.tables().FindOutref(o)->clean());
  Site& site0 = system.site(0);
  site0.back_tracer().StartTrace(site0.tables().outrefs().begin()->first);
  while (site1.back_tracer().VisitCount(IorefKind::kOutref, o) == 0 &&
         system.scheduler().RunOne()) {
  }
  ASSERT_EQ(site1.back_tracer().VisitCount(IorefKind::kOutref, o), 1u);
  ASSERT_EQ(site1.tables().FindOutref(o)->back_threshold, 0u);
  EXPECT_EQ(site1.back_tracer().MaybeStartTraces(), 0u);
  EXPECT_EQ(site1.back_tracer().stats().traces_started, 0u);
  // Once the trace reports, its mark is gone and o is a candidate again.
  system.SettleNetwork();
  EXPECT_EQ(site0.back_tracer().stats().traces_completed_garbage, 1u);
  EXPECT_EQ(site1.back_tracer().VisitCount(IorefKind::kOutref, o), 0u);
}

// --- Timeouts and crashed sites (§4.6) ----------------------------------------

TEST(TimeoutTest, CrashedSiteMakesTraceAssumeLive) {
  CollectorConfig config = Config();
  config.enable_back_tracing = false;
  config.back_call_timeout = 500;
  System system(3, config);
  const auto cycle =
      workload::BuildCycle(system, {.sites = 3, .objects_per_site = 1});
  RipenSuspicion(system, 12);
  system.network().SetSiteDown(2, true);

  Site& initiator = system.site(0);
  bool completed = false;
  BackResult outcome = BackResult::kGarbage;
  initiator.back_tracer().set_outcome_observer(
      [&](const TraceOutcome& trace_outcome) {
        completed = true;
        outcome = trace_outcome.result;
      });
  initiator.back_tracer().StartTrace(
      initiator.tables().outrefs().begin()->first);
  system.SettleNetwork();
  EXPECT_TRUE(completed);
  // The branch through the dead site timed out: safely assumed Live, so the
  // cycle is NOT collected this time (fault tolerance errs safe).
  EXPECT_EQ(outcome, BackResult::kLive);
  EXPECT_TRUE(system.ObjectExists(cycle.objects[0]));
  EXPECT_GE(system.AggregateBackTracerStats().timeouts, 1u);
}

TEST(TimeoutTest, CycleCollectedAfterSiteRecovers) {
  CollectorConfig config = Config();
  config.back_call_timeout = 500;
  config.report_timeout = 2000;
  System system(3, config);
  const auto cycle =
      workload::BuildCycle(system, {.sites = 3, .objects_per_site = 1});
  system.network().SetSiteDown(2, true);
  system.RunRounds(14);
  EXPECT_TRUE(system.ObjectExists(cycle.objects[0]));  // stalled, safe
  system.network().SetSiteDown(2, false);
  system.RunRounds(25);
  for (const ObjectId id : cycle.objects) {
    EXPECT_FALSE(system.ObjectExists(id)) << id;
  }
}

TEST(TimeoutTest, PartitionedLinkDelaysOnlyThatCycle) {
  // Sever the link inside cycle B's site pair; cycle A (other sites) is
  // unaffected; B is safely delayed and collected after the link heals.
  CollectorConfig config = Config();
  config.back_call_timeout = 400;
  config.report_timeout = 3000;
  System system(4, config);
  const auto cycle_a = workload::BuildCycle(
      system, {.sites = 2, .objects_per_site = 1, .first_site = 0});
  const auto cycle_b = workload::BuildCycle(
      system, {.sites = 2, .objects_per_site = 1, .first_site = 2});
  system.network().SetLinkDown(2, 3, true);
  system.RunRounds(20);
  EXPECT_FALSE(system.ObjectExists(cycle_a.objects[0]));
  EXPECT_TRUE(system.ObjectExists(cycle_b.objects[0]));  // delayed, safe
  EXPECT_TRUE(system.CheckSafety().empty()) << system.CheckSafety();
  system.network().SetLinkDown(2, 3, false);
  system.RunRounds(25);
  EXPECT_FALSE(system.ObjectExists(cycle_b.objects[0]));
  EXPECT_TRUE(system.CheckCompleteness().empty())
      << system.CheckCompleteness();
}

TEST(TimeoutTest, StaleVisitRecordsExpireToLive) {
  CollectorConfig config = Config();
  config.enable_back_tracing = false;
  config.back_call_timeout = 300;
  config.report_timeout = 1000;
  System system(2, config);
  workload::BuildCycle(system, {.sites = 2, .objects_per_site = 1});
  RipenSuspicion(system, 10);
  // Start a trace, then crash the initiator's network before reports flow:
  // site 1's visit record must eventually expire and clear its marks.
  system.site(0).back_tracer().StartTrace(
      system.site(0).tables().outrefs().begin()->first);
  system.scheduler().RunUntil(system.scheduler().now() + 40);
  system.network().SetSiteDown(0, true);
  system.SettleNetwork();
  system.scheduler().RunUntil(system.scheduler().now() + 2000);
  system.site(1).StartLocalTrace();  // housekeeping runs ExpireStaleRecords
  system.SettleNetwork();
  for (const auto& [obj, entry] : system.site(1).tables().inrefs()) {
    (void)entry;
    EXPECT_EQ(system.site(1).back_tracer().VisitCount(IorefKind::kInref, obj),
              0u);
  }
}

// --- Engine edge cases ---------------------------------------------------------

TEST(EngineEdgeTest, TraceFromMissingOutrefCompletesGarbageHarmlessly) {
  CollectorConfig config = Config();
  config.enable_back_tracing = false;
  System system(2, config);
  workload::BuildCycle(system, {.sites = 2, .objects_per_site = 1});
  system.RunRounds(4);
  Site& site0 = system.site(0);
  bool completed = false;
  BackResult outcome = BackResult::kLive;
  site0.back_tracer().set_outcome_observer([&](const TraceOutcome& result) {
    completed = true;
    outcome = result.result;
  });
  site0.back_tracer().StartTrace(ObjectId{1, 999});  // no such outref
  system.SettleNetwork();
  EXPECT_TRUE(completed);
  EXPECT_EQ(outcome, BackResult::kGarbage);  // deleted ioref ⇒ dead path
  // Nothing was visited, so the report flags nothing anywhere.
  for (SiteId s = 0; s < 2; ++s) {
    for (const auto& [obj, entry] : system.site(s).tables().inrefs()) {
      (void)obj;
      EXPECT_FALSE(entry.garbage_flagged);
    }
  }
  EXPECT_TRUE(site0.back_tracer().idle());
}

TEST(EngineEdgeTest, VisitBumpsBackThresholdByConfiguredIncrement) {
  CollectorConfig config = Config();
  config.enable_back_tracing = false;
  config.back_threshold_increment = 7;
  System system(2, config);
  const auto cycle =
      workload::BuildCycle(system, {.sites = 2, .objects_per_site = 1});
  system.RunRounds(8);
  Site& site0 = system.site(0);
  const ObjectId outref_ref = site0.tables().outrefs().begin()->first;
  const Distance before_out = site0.tables().FindOutref(outref_ref)->back_threshold;
  const Distance before_in =
      site0.tables().FindInref(cycle.objects[0])->back_threshold;
  site0.back_tracer().StartTrace(outref_ref);
  system.SettleNetwork();
  EXPECT_EQ(site0.tables().FindOutref(outref_ref)->back_threshold,
            before_out + 7);
  EXPECT_EQ(site0.tables().FindInref(cycle.objects[0])->back_threshold,
            before_in + 7);
}

TEST(EngineEdgeTest, InfiniteDistanceOutrefsNeverTrigger) {
  CollectorConfig config = Config();
  System system(2, config);
  // A freshly created table entry that no trace has touched yet carries
  // distance infinity; MaybeStartTraces must skip it (infinity is "unknown",
  // not "very suspected").
  const ObjectId obj = system.NewObject(1, 0);
  auto [entry, created] = system.site(0).tables().EnsureOutref(obj);
  ASSERT_TRUE(created);
  EXPECT_EQ(entry->distance, kDistanceInfinity);
  EXPECT_FALSE(entry->clean());
  EXPECT_EQ(system.site(0).back_tracer().MaybeStartTraces(), 0u);
}

// --- Visited marks (§4.4) ----------------------------------------------------

/// A suspected two-site ring, ripened without back tracing, whose site 0
/// swallows every back call and records every back reply: calls injected
/// at site 1 mark its inref and step no further.
class VisitMarkWorld {
 public:
  VisitMarkWorld() : system_(2, WorldConfig()), x_(Ring(system_)) {
    RipenSuspicion(system_);
    system_.site(0).SetExtensionHandler([this](const Envelope& envelope) {
      if (const auto* reply = std::get_if<BackReplyMsg>(&envelope.payload)) {
        replies_[reply->to.frame] = reply->result;
        return true;
      }
      return std::holds_alternative<BackLocalCallMsg>(envelope.payload) ||
             std::holds_alternative<BackCallBatchMsg>(envelope.payload);
    });
  }

  static CollectorConfig WorldConfig() {
    CollectorConfig config = Config();
    config.enable_back_tracing = false;
    config.report_timeout = 1000;
    return config;
  }

  System& system() { return system_; }
  BackTracer& tracer() { return system_.site(1).back_tracer(); }
  /// Site 1's inref of the ring.
  [[nodiscard]] ObjectId x() const { return x_; }
  /// `trace` calls into x on behalf of frame `frame` at site 0.
  void Call(TraceId trace, std::uint64_t frame) {
    system_.site(1).HandleMessage(
        Envelope{0, 1, BackRemoteCallMsg{trace, x_, FrameId{0, frame}}});
  }
  void Report(TraceId trace) {
    system_.site(1).HandleMessage(
        Envelope{0, 1, BackReportMsg{trace, BackResult::kLive}});
  }
  [[nodiscard]] std::size_t Marks() {
    return tracer().VisitCount(IorefKind::kInref, x_);
  }
  [[nodiscard]] const std::map<std::uint64_t, BackResult>& replies() const {
    return replies_;
  }

 private:
  static ObjectId Ring(System& system) {
    return workload::BuildCycle(system, {.sites = 2, .objects_per_site = 1})
        .objects[1];
  }

  System system_;
  ObjectId x_;
  std::map<std::uint64_t, BackResult> replies_;  // by caller frame
};

TEST(VisitMarkTest, EachTracesMarksLiveInItsRecordUntilTheRecordGoes) {
  VisitMarkWorld world;
  const InrefEntry* inref =
      world.system().site(1).tables().FindInref(world.x());
  ASSERT_NE(inref, nullptr);
  ASSERT_FALSE(inref->clean(VisitMarkWorld::WorldConfig().suspicion_threshold));
  // The junior marks x first, so the senior does not park on its record:
  // both traces hold a mark on the one inref.
  const TraceId senior{0, 1}, junior{0, 2};
  world.Call(junior, 1);
  world.Call(senior, 2);
  EXPECT_EQ(world.Marks(), 2u);
  EXPECT_EQ(world.tracer().visit_record_count(), 2u);
  EXPECT_NE(DescribeSite(world.system().site(1)).find(" visited:2"),
            std::string::npos);
  // A call from each trace into the inref it has already marked answers
  // Garbage, and marks nothing twice.
  world.Call(junior, 3);
  world.Call(senior, 4);
  world.system().SettleNetwork();
  EXPECT_EQ(world.replies(),
            (std::map<std::uint64_t, BackResult>{{3, BackResult::kGarbage},
                                                 {4, BackResult::kGarbage}}));
  EXPECT_EQ(world.Marks(), 2u);
  EXPECT_EQ(world.tracer().stats().branches_coalesced, 0u);

  // A report drops its trace's record, and with it that trace's mark only.
  world.Report(senior);
  EXPECT_EQ(world.Marks(), 1u);
  world.Report(junior);
  EXPECT_EQ(world.Marks(), 0u);

  // So does expiry past report_timeout...
  world.Call(TraceId{0, 3}, 5);
  EXPECT_EQ(world.Marks(), 1u);
  world.system().AdvanceTime(VisitMarkWorld::WorldConfig().report_timeout);
  world.tracer().ExpireStaleRecords();
  EXPECT_EQ(world.Marks(), 0u);
  EXPECT_EQ(world.tracer().stats().records_expired, 1u);

  // ...the scrub of a restarted initiator's traces...
  world.Call(TraceId{0, 4}, 6);
  EXPECT_EQ(world.Marks(), 1u);
  world.tracer().OnPeerRestarted(0);
  EXPECT_EQ(world.Marks(), 0u);
  EXPECT_EQ(world.tracer().stats().records_scrubbed, 1u);

  // ...and this site's own crash.
  world.Call(TraceId{0, 5}, 7);
  EXPECT_EQ(world.Marks(), 1u);
  world.tracer().DropVolatileState();
  EXPECT_EQ(world.Marks(), 0u);
  EXPECT_EQ(world.tracer().visit_record_count(), 0u);
  EXPECT_EQ(DescribeSite(world.system().site(1)).find(" visited:"),
            std::string::npos);
}

TEST(VisitMarkTest, RecreatedInrefAnswersLiveToTheTraceThatMarkedIt) {
  // A mark outlives an inref erased and re-created while its trace runs.
  // The re-created inref starts clean (an insert adds its source at
  // distance 1), and the handler tests clean before visited, so the trace
  // that marked the old entry hears Live.
  CollectorConfig config = Config();
  config.enable_back_tracing = false;
  NetworkConfig net;
  net.latency = 50;
  System system(2, config, net);
  const ObjectId x =
      workload::BuildCycle(system, {.sites = 2, .objects_per_site = 1})
          .objects[1];
  RipenSuspicion(system);
  Site& site0 = system.site(0);
  Site& site1 = system.site(1);
  const TraceId trace =
      site0.back_tracer().StartTrace(site0.tables().outrefs().begin()->first);
  while (site1.back_tracer().VisitCount(IorefKind::kInref, x) == 0 &&
         system.scheduler().RunOne()) {
  }
  ASSERT_EQ(site1.back_tracer().VisitCount(IorefKind::kInref, x), 1u);

  site1.HandleMessage(Envelope{
      0, 1, UpdateMsg{std::vector<UpdateEntry>{{x, /*removed=*/true}}}});
  ASSERT_EQ(site1.tables().FindInref(x), nullptr);
  site1.HandleMessage(Envelope{0, 1, InsertMsg{x}});
  ASSERT_NE(site1.tables().FindInref(x), nullptr);
  ASSERT_EQ(site1.back_tracer().visit_record_count(), 1u);  // not reported

  // Frame 0 is no real frame: site 0 takes the reply to it here.
  std::vector<BackResult> replies;
  site0.SetExtensionHandler([&](const Envelope& envelope) {
    const auto* reply = std::get_if<BackReplyMsg>(&envelope.payload);
    if (reply == nullptr || reply->to.frame != 0) return false;
    replies.push_back(reply->result);
    return true;
  });
  site1.HandleMessage(
      Envelope{0, 1, BackRemoteCallMsg{trace, x, FrameId{0, 0}}});
  system.SettleNetwork();
  EXPECT_EQ(replies, std::vector<BackResult>{BackResult::kLive});
}

// --- Report phase (§4.5) -------------------------------------------------------

TEST(ReportPhaseTest, GarbageOutcomeFlagsAllVisitedInrefs) {
  CollectorConfig config = Config();
  config.enable_back_tracing = false;
  System system(3, config);
  const auto cycle =
      workload::BuildCycle(system, {.sites = 3, .objects_per_site = 1});
  RipenSuspicion(system, 12);
  system.site(0).back_tracer().StartTrace(
      system.site(0).tables().outrefs().begin()->first);
  system.SettleNetwork();
  for (SiteId s = 0; s < 3; ++s) {
    const InrefEntry* entry =
        system.site(s).tables().FindInref(cycle.objects[s]);
    ASSERT_NE(entry, nullptr);
    EXPECT_TRUE(entry->garbage_flagged) << "site " << s;
    EXPECT_EQ(system.site(s).back_tracer().VisitCount(IorefKind::kInref,
                                                      cycle.objects[s]),
              0u);
  }
}

TEST(ReportPhaseTest, DeletedIorefDuringAnotherTraceIsHandled) {
  // Boyapati's problem case (acknowledgements): trace T2 is active at an
  // ioref deleted because trace T1 confirmed garbage. Frames provide the
  // return information, so T2 completes normally.
  CollectorConfig config = Config();
  config.enable_back_tracing = false;
  // Slow network so two traces interleave across several ticks.
  NetworkConfig net;
  net.latency = 40;
  System system(2, config, net);
  const auto cycle =
      workload::BuildCycle(system, {.sites = 2, .objects_per_site = 1});
  RipenSuspicion(system, 10);
  int completed = 0;
  for (SiteId s = 0; s < 2; ++s) {
    system.site(s).back_tracer().set_outcome_observer(
        [&](const TraceOutcome&) { ++completed; });
    system.site(s).back_tracer().StartTrace(
        system.site(s).tables().outrefs().begin()->first);
  }
  system.SettleNetwork();
  system.RunRounds(4);  // local traces delete flagged inrefs mid-flight
  EXPECT_EQ(completed, 2);
  EXPECT_FALSE(system.ObjectExists(cycle.objects[0]));
  EXPECT_TRUE(system.site(0).back_tracer().idle());
  EXPECT_TRUE(system.site(1).back_tracer().idle());
}

// --- Trace coalescing (§4.7 refined) -----------------------------------------

TEST(CoalescingTest, OverlappingTracesShareOneTraversal) {
  // All sites of one cycle trigger simultaneously on a slow network, so the
  // traces genuinely overlap. Junior traces park on the senior's visited
  // marks instead of timing out against them; every trace still completes
  // and the cycle dies.
  CollectorConfig config = Config();
  config.estimated_cycle_length = 6;
  config.enable_back_tracing = false;
  NetworkConfig net;
  net.latency = 20;
  System system(4, config, net);
  const auto cycle =
      workload::BuildCycle(system, {.sites = 4, .objects_per_site = 1});
  RipenSuspicion(system, 14);
  int completed = 0;
  for (SiteId s = 0; s < 4; ++s) {
    system.site(s).back_tracer().set_outcome_observer(
        [&](const TraceOutcome&) { ++completed; });
    system.site(s).back_tracer().StartTrace(
        system.site(s).tables().outrefs().begin()->first);
  }
  system.SettleNetwork();
  const BackTracerStats stats = system.AggregateBackTracerStats();
  EXPECT_EQ(stats.traces_started, 4u);
  EXPECT_EQ(completed, 4);
  EXPECT_GE(stats.branches_coalesced, 1u);
  EXPECT_GE(stats.traces_completed_garbage, 1u);
  system.RunRounds(4);
  for (const ObjectId id : cycle.objects) {
    EXPECT_FALSE(system.ObjectExists(id));
  }
  EXPECT_TRUE(system.CheckSafety().empty()) << system.CheckSafety();
}

TEST(CoalescingTest, WaiterInheritsGarbageVerdict) {
  // Two initiators on a two-site cycle: the junior's deferred branch is
  // answered from the senior's Garbage report (waiters_resolved), not by
  // re-traversing.
  CollectorConfig config = Config();
  config.enable_back_tracing = false;
  NetworkConfig net;
  net.latency = 20;
  System system(2, config, net);
  const auto cycle =
      workload::BuildCycle(system, {.sites = 2, .objects_per_site = 1});
  RipenSuspicion(system, 12);
  for (SiteId s = 0; s < 2; ++s) {
    system.site(s).back_tracer().StartTrace(
        system.site(s).tables().outrefs().begin()->first);
  }
  system.SettleNetwork();
  const BackTracerStats stats = system.AggregateBackTracerStats();
  EXPECT_GE(stats.branches_coalesced, 1u);
  EXPECT_GE(stats.waiters_resolved, 1u);
  system.RunRounds(4);
  for (const ObjectId id : cycle.objects) {
    EXPECT_FALSE(system.ObjectExists(id));
  }
  EXPECT_TRUE(system.CheckSafety().empty()) << system.CheckSafety();
}

// --- Call batching -----------------------------------------------------------

TEST(CallBatchingTest, SimultaneousCallsToOneSiteShareOneMessage) {
  // Two disjoint cycles spanning the same site pair, traced simultaneously:
  // each hop produces two back calls for the same destination in the same
  // instant, which ship as one BackCallBatchMsg instead of two messages.
  CollectorConfig config = Config();
  config.enable_back_tracing = false;
  System system(2, config);
  const auto first =
      workload::BuildCycle(system, {.sites = 2, .objects_per_site = 1});
  const auto second =
      workload::BuildCycle(system, {.sites = 2, .objects_per_site = 1});
  RipenSuspicion(system, 12);
  system.network().ResetStats();
  std::vector<ObjectId> starts;
  for (const auto& [ref, entry] : system.site(0).tables().outrefs()) {
    (void)entry;
    starts.push_back(ref);
  }
  ASSERT_EQ(starts.size(), 2u);
  for (const ObjectId ref : starts) {
    system.site(0).back_tracer().StartTrace(ref);
  }
  system.SettleNetwork();
  const NetworkStats& net_stats = system.network().stats();
  const BackTracerStats stats = system.AggregateBackTracerStats();
  EXPECT_GE(net_stats.count_of<BackCallBatchMsg>(), 1u);
  EXPECT_GE(stats.calls_batched, 2u);
  EXPECT_EQ(stats.traces_completed_garbage, 2u);
  system.RunRounds(4);
  for (const ObjectId id : first.objects) {
    EXPECT_FALSE(system.ObjectExists(id));
  }
  for (const ObjectId id : second.objects) {
    EXPECT_FALSE(system.ObjectExists(id));
  }
  EXPECT_TRUE(system.CheckSafety().empty()) << system.CheckSafety();
}

}  // namespace
}  // namespace dgc
