// Concurrency tests (Section 6): transfer/insert barriers racing back traces
// and local traces, the clean rule, non-atomic local tracing with
// double-buffered back information, and the Figure 5/6 problem cases.
#include <gtest/gtest.h>

#include "core/system.h"
#include "mutator/session.h"
#include "reuse_check.h"
#include "workload/builders.h"
#include "workload/figures.h"

namespace dgc {
namespace {

CollectorConfig Config() {
  CollectorConfig config;
  config.suspicion_threshold = 3;
  config.estimated_cycle_length = 3;
  return config;
}

// Builds the "rescue race" world: a suspected two-site cycle {p@0, q@1}
// kept alive only by a long multi-hop path from a root, which a mutator is
// about to replace with a short new reference. This is the general shape of
// Figures 5/6: if the back trace misses the new reference but sees the old
// path deleted, it would wrongly condemn the live cycle.
struct RescueWorld {
  ObjectId p, q;          // the suspected live cycle
  ObjectId anchor;        // rooted object at site 2 with a free slot
  ObjectId root;          // persistent root of the old path
  ObjectId h2;            // mid-path hop at site 1
  ObjectId h3;            // mid-path hop at site 2; unwire slot 0 to cut
  ObjectId last_hop;      // final link (h4); unwire slot 0 to cut at the end
};

RescueWorld BuildRescueWorld(System& system) {
  RescueWorld w;
  w.p = system.NewObject(0, 1);
  w.q = system.NewObject(1, 1);
  system.Wire(w.p, 0, w.q);
  system.Wire(w.q, 0, w.p);
  // Old path: root@2 -> h1@0 -> h2@1 -> h3@2 -> h4@0 -> p, so p's distance
  // is ~4 and the cycle's iorefs become suspected while genuinely live.
  const ObjectId root = system.NewObject(2, 1);
  system.SetPersistentRoot(root);
  const ObjectId h1 = system.NewObject(0, 1);
  const ObjectId h2 = system.NewObject(1, 1);
  const ObjectId h3 = system.NewObject(2, 1);
  const ObjectId h4 = system.NewObject(0, 1);
  system.Wire(root, 0, h1);
  system.Wire(h1, 0, h2);
  system.Wire(h2, 0, h3);
  system.Wire(h3, 0, h4);
  system.Wire(h4, 0, w.p);
  w.root = root;
  w.h2 = h2;
  w.h3 = h3;
  w.last_hop = h4;
  // Rooted anchor with a spare slot for the rescuing reference.
  w.anchor = system.NewObject(2, 1);
  system.SetPersistentRoot(w.anchor);
  return w;
}

TEST(RescueRaceTest, BarriersKeepRescuedCycleSafe) {
  // The mutator, via the real RPC path (all barriers firing), copies a
  // reference to q into the rooted anchor and then the old path is cut.
  // Whatever back traces run concurrently, the cycle must survive.
  NetworkConfig net;
  net.latency = 25;  // slow enough for traces and mutations to interleave
  System system(3, Config(), net);
  RescueWorld w = BuildRescueWorld(system);
  system.RunRounds(6);  // distances ripen: cycle iorefs suspected
  ASSERT_FALSE(system.site(1)
                   .tables()
                   .FindInref(w.q)
                   ->clean(system.site(1).config().suspicion_threshold));

  Session session(system, 2, 1);
  session.LoadRoot(w.anchor);
  // Mutator reaches p (traversal of the old path's last hop): obtaining the
  // reference runs §6.1.2 case 4 at the home site and the transfer barrier
  // at p's owner.
  session.LoadRoot(w.p);
  bool got_q = false;
  // Obtain ref to q by reading p.slots[0] remotely — through the RPC path.
  ObjectId q_ref = kInvalidObject;
  session.StartRead(w.p, 0, [&](ObjectId value) {
    q_ref = value;
    got_q = true;
  });
  // While the read is in flight, back traces may be starting; let a round of
  // traces fire concurrently.
  system.site(0).StartLocalTrace();
  system.site(1).StartLocalTrace();
  system.SettleNetwork();
  ASSERT_TRUE(got_q);
  ASSERT_EQ(q_ref, w.q);

  // Publish the rescue, then cut the old path.
  session.Write(w.anchor, 0, w.q);
  session.ReleaseAll();
  system.Unwire(w.last_hop, 0);

  system.RunRounds(20);
  EXPECT_TRUE(system.ObjectExists(w.p));
  EXPECT_TRUE(system.ObjectExists(w.q));
  EXPECT_TRUE(system.CheckSafety().empty()) << system.CheckSafety();
  // Everything left is reachable (the hops stay rooted; the cycle hangs off
  // the anchor): the world is garbage-free.
  EXPECT_TRUE(system.CheckCompleteness().empty())
      << system.CheckCompleteness();
}

TEST(RescueRaceTest, WithoutBarriersTheRaceIsActuallyDangerous) {
  // Counterfactual proving the barriers above are load-bearing: the same
  // rescue performed with god-mode wiring (no barriers, no clean rule hook)
  // while a back trace is mid-flight. The trace walks stale back
  // information, meets the deleted mid-path edge, wrongly condemns the
  // *live* (anchored) cycle, and the safety oracle reports the violation —
  // the precise §6.4 hazard the paper's machinery exists to prevent.
  CollectorConfig config = Config();
  config.suspicion_threshold = 2;  // hops h3/h4 suspected: no clean rescue
  config.enable_back_tracing = false;  // we drive the single trace by hand
  NetworkConfig net;
  net.latency = 30;
  System system(3, config, net);
  RescueWorld w = BuildRescueWorld(system);
  system.RunRounds(6);

  // The back trace from site 0's outref to q departs...
  Site& site0 = system.site(0);
  ASSERT_NE(site0.tables().FindOutref(w.q), nullptr);
  bool completed = false;
  BackResult outcome = BackResult::kLive;
  site0.back_tracer().set_outcome_observer([&](const TraceOutcome& result) {
    completed = true;
    outcome = result.result;
  });
  site0.back_tracer().StartTrace(w.q);
  system.scheduler().RunUntil(system.scheduler().now() + 5);

  // ...and immediately afterwards the mutator rescues q with a *local copy*
  // (§6.1.1's tricky case: no ioref state changes at all) into a rooted
  // object on q's own site, skipping the case-1 transfer barrier a real
  // arrival would have fired. Then the edge h3 -> h4 is deleted at site 2,
  // whose local trace trims its outref for h4 — the Figure 5 pattern: the
  // copy's site (1) keeps stale back information while the deletion's site
  // (2) refreshes.
  const ObjectId local_anchor = system.NewObject(1, 1);
  system.SetPersistentRoot(local_anchor);
  system.site(1).heap().SetSlot(local_anchor, 0, w.q);  // no barrier!
  system.Unwire(w.h3, 0);
  system.site(2).StartLocalTrace();

  system.SettleNetwork();
  ASSERT_TRUE(completed);
  // The trace saw only suspected/deleted iorefs: wrongly Garbage.
  EXPECT_EQ(outcome, BackResult::kGarbage);
  system.RunRounds(3);  // flagged inrefs are swept
  // q survives (directly under the new root) but the rest of its cycle is
  // wrongly reclaimed out from under it: p is gone while live q holds it.
  EXPECT_FALSE(system.ObjectExists(w.p));
  EXPECT_TRUE(system.ObjectExists(w.q));
  const std::string violation = system.CheckSafety();
  EXPECT_FALSE(violation.empty())
      << "expected the oracle to catch the unsafe collection";
}

// --- Clean rule (§6.4) --------------------------------------------------------

TEST(CleanRuleTest, CleaningIorefWithActiveTraceForcesLive) {
  NetworkConfig net;
  net.latency = 100;  // very slow: the trace will be parked mid-flight
  System system(3, Config(), net);
  RescueWorld w = BuildRescueWorld(system);
  system.RunRounds(6);

  Site& site0 = system.site(0);
  bool completed = false;
  BackResult outcome = BackResult::kGarbage;
  site0.back_tracer().set_outcome_observer([&](const TraceOutcome& result) {
    completed = true;
    outcome = result.result;
  });
  site0.back_tracer().StartTrace(w.q);
  // Let the trace become active at site 0's iorefs (self-steps run at +0,
  // the remote call to site 1 is in flight for 100 ticks).
  system.scheduler().RunUntil(system.scheduler().now() + 10);
  ASSERT_GT(site0.back_tracer().active_frames(), 0u);

  // A mutator transfer arrives for p: the barrier cleans inref p and its
  // outset (which includes the outref to q the trace started from). The
  // clean rule must force this trace Live regardless of what the other
  // branches conclude.
  site0.ApplyTransferBarrier(w.p);
  system.SettleNetwork();
  EXPECT_TRUE(completed);
  EXPECT_EQ(outcome, BackResult::kLive);
  EXPECT_GE(site0.back_tracer().stats().clean_rule_hits, 1u);
  // Live outcome: nothing flagged anywhere.
  for (SiteId s = 0; s < 3; ++s) {
    for (const auto& [obj, entry] : system.site(s).tables().inrefs()) {
      (void)obj;
      EXPECT_FALSE(entry.garbage_flagged);
    }
  }
}

TEST(CleanRuleTest, PinningOutrefWithActiveTraceForcesLive) {
  NetworkConfig net;
  net.latency = 100;
  System system(3, Config(), net);
  RescueWorld w = BuildRescueWorld(system);
  system.RunRounds(6);
  Site& site0 = system.site(0);
  BackResult outcome = BackResult::kGarbage;
  bool completed = false;
  site0.back_tracer().set_outcome_observer([&](const TraceOutcome& result) {
    completed = true;
    outcome = result.result;
  });
  site0.back_tracer().StartTrace(w.q);
  system.scheduler().RunUntil(system.scheduler().now() + 10);
  // A session variable takes hold of the reference to q at site 0 (e.g. the
  // mutator just received it): the pin transitions the outref to clean.
  site0.PinOutref(w.q);
  system.SettleNetwork();
  EXPECT_TRUE(completed);
  EXPECT_EQ(outcome, BackResult::kLive);
  site0.UnpinOutref(w.q);
}

// --- Non-atomic local tracing (§6.2) -------------------------------------------

TEST(NonAtomicTraceTest, BackTraceDuringTraceSeesOldCopy) {
  CollectorConfig config = Config();
  config.local_trace_duration = 200;
  config.enable_back_tracing = false;
  System system(2, config);
  CheckEveryReuse(system);
  const auto cycle =
      workload::BuildCycle(system, {.sites = 2, .objects_per_site = 1});
  // Ripen with several (non-overlapping) slow traces.
  for (int i = 0; i < 8; ++i) {
    system.site(0).StartLocalTrace();
    system.site(1).StartLocalTrace();
    system.SettleNetwork();
  }
  Site& site0 = system.site(0);
  const auto& old_insets = site0.back_info().outref_insets;
  ASSERT_FALSE(old_insets.empty());

  // Start a local trace; while it is in flight the site serves back steps
  // from the old copy.
  site0.StartLocalTrace();
  ASSERT_TRUE(site0.trace_in_flight());
  EXPECT_FALSE(site0.back_info().outref_insets.empty());
  bool completed = false;
  BackResult outcome = BackResult::kLive;
  site0.back_tracer().set_outcome_observer([&](const TraceOutcome& result) {
    completed = true;
    outcome = result.result;
  });
  site0.back_tracer().StartTrace(cycle.objects[1]);
  system.SettleNetwork();
  EXPECT_TRUE(completed);
  EXPECT_EQ(outcome, BackResult::kGarbage);
  EXPECT_FALSE(site0.trace_in_flight());
}

TEST(NonAtomicTraceTest, BarrierDuringTraceWindowIsRemembered) {
  CollectorConfig config = Config();
  config.local_trace_duration = 200;
  config.enable_back_tracing = false;
  System system(3, config);
  CheckEveryReuse(system);
  RescueWorld w = BuildRescueWorld(system);
  for (int i = 0; i < 6; ++i) {
    for (SiteId s = 0; s < 3; ++s) system.site(s).StartLocalTrace();
    system.SettleNetwork();
  }
  Site& site0 = system.site(0);
  InrefEntry* inref_p = site0.tables().FindInref(w.p);
  ASSERT_NE(inref_p, nullptr);
  ASSERT_FALSE(inref_p->clean(config.suspicion_threshold));

  // Open a trace window and apply the barrier inside it.
  site0.StartLocalTrace();
  ASSERT_TRUE(site0.trace_in_flight());
  site0.ApplyTransferBarrier(w.p);
  EXPECT_TRUE(inref_p->clean(config.suspicion_threshold));
  OutrefEntry* outref_q = site0.tables().FindOutref(w.q);
  ASSERT_NE(outref_q, nullptr);
  EXPECT_TRUE(outref_q->clean());  // cleaned via old copy's outset

  // When the trace applies, the remembered cleaning must survive the swap
  // (it would otherwise be wiped by step 1 of ApplyTraceResult) and be
  // re-applied against the new copy.
  system.SettleNetwork();
  EXPECT_FALSE(site0.trace_in_flight());
  EXPECT_TRUE(inref_p->clean(config.suspicion_threshold));
  EXPECT_TRUE(outref_q->clean());

  // The following trace (no barrier in its window) reverts to suspicion.
  site0.StartLocalTrace();
  system.SettleNetwork();
  EXPECT_FALSE(inref_p->clean(config.suspicion_threshold));
}

TEST(NonAtomicTraceTest, ObjectsAllocatedMidTraceSurviveTheSweep) {
  CollectorConfig config = Config();
  config.local_trace_duration = 200;
  System system(1, config);
  CheckEveryReuse(system);
  const ObjectId dead = system.NewObject(0, 0);
  Session session(system, 0, 1);
  system.site(0).StartLocalTrace();
  const ObjectId fresh = session.Create(0);  // allocated inside the window
  system.SettleNetwork();
  EXPECT_FALSE(system.ObjectExists(dead));
  EXPECT_TRUE(system.ObjectExists(fresh));
}

// --- Figures 5 and 6 end-to-end -------------------------------------------------

class Figure5Plus6 : public ::testing::TestWithParam<bool> {};

TEST_P(Figure5Plus6, MutationRaceNeverKillsLiveObjects) {
  // Drive the figure's mutation (create y->z, delete d->e) through the real
  // mutator/barrier machinery at many different trace/mutation timings; no
  // interleaving may violate safety, and the garbage that results from the
  // deletion must eventually be collected.
  const bool second_source = GetParam();
  for (SimTime mutation_delay = 0; mutation_delay <= 240;
       mutation_delay += 40) {
    NetworkConfig net;
    net.latency = 30;
    System system(4, Config(), net);
    CheckEveryReuse(system);
    const auto w = workload::BuildFigure5(system, second_source);
    system.RunRounds(5);  // e, f, g (and z, x) become suspected

    // Session at Q holds z (it traversed the old path; the traversal's
    // final hop fired the transfer barrier at Q for inref f).
    Session session(system, 1, 1);
    system.site(1).ApplyTransferBarrier(w.f);
    session.Hold(w.z);
    session.Hold(w.b);

    // Kick local traces staggered so back traces may be mid-flight when the
    // mutation lands.
    system.RunRoundStaggered(15);
    system.scheduler().RunUntil(system.scheduler().now() + mutation_delay);

    // y -> z (local copy at Q: no barrier needed, variables are roots),
    // then delete d -> e at S.
    const ObjectId y = w.y;
    system.site(1).heap().SetSlot(y, 0, w.z);
    system.Unwire(w.d, 0);
    session.ReleaseAll();

    system.RunRounds(20);
    // Live: a, b, y, z, g, c, d (all reachable from root a).
    for (const ObjectId id : {w.a, w.b, w.y, w.z, w.g, w.c, w.d}) {
      EXPECT_TRUE(system.ObjectExists(id))
          << "delay " << mutation_delay << " second_source " << second_source;
    }
    // Garbage: e, f, x (the old path's tail).
    for (const ObjectId id : {w.e, w.f, w.x}) {
      EXPECT_FALSE(system.ObjectExists(id))
          << "delay " << mutation_delay << " second_source " << second_source;
    }
    EXPECT_TRUE(system.CheckSafety().empty()) << system.CheckSafety();
  }
}

INSTANTIATE_TEST_SUITE_P(Fig5AndFig6, Figure5Plus6, ::testing::Bool());

}  // namespace
}  // namespace dgc
