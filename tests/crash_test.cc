// Crash-restart tests: a site loses its volatile state (frames, visit
// records, pins, in-flight trace, continuations) but keeps its persistent
// store (heap, tables, back info). The rest of the system recovers through
// timeouts, report expiry, and recovery-time re-registration. Every reused
// local trace is checked against a shadow full trace.
#include <gtest/gtest.h>

#include "core/system.h"
#include "mutator/session.h"
#include "reuse_check.h"
#include "workload/builders.h"

namespace dgc {
namespace {

CollectorConfig Config() {
  CollectorConfig config;
  config.suspicion_threshold = 2;
  config.estimated_cycle_length = 4;
  config.back_call_timeout = 400;
  config.report_timeout = 3000;
  return config;
}

TEST(CrashRestartTest, PersistentStateSurvives) {
  System system(2, Config());
  CheckEveryReuse(system);
  const auto cycle =
      workload::BuildCycle(system, {.sites = 2, .objects_per_site = 2});
  const ObjectId tether = workload::TetherToRoot(system, cycle.head(), 0);
  system.RunRounds(3);
  const std::size_t objects = system.site(0).heap().object_count();
  const std::size_t inrefs = system.site(0).tables().inrefs().size();
  const std::size_t back_info_elements =
      system.site(0).back_info().stored_elements();
  system.site(0).CrashRestart();
  system.SettleNetwork();
  EXPECT_EQ(system.site(0).heap().object_count(), objects);
  EXPECT_EQ(system.site(0).tables().inrefs().size(), inrefs);
  // Back information is persistent too: unchanged by the restart.
  EXPECT_EQ(system.site(0).back_info().stored_elements(), back_info_elements);
  (void)tether;
}

TEST(CrashRestartTest, MidTraceCrashRecoversViaTimeouts) {
  CollectorConfig config = Config();
  config.enable_back_tracing = false;  // traces driven by hand below
  NetworkConfig net;
  net.latency = 50;
  System system(3, config, net);
  CheckEveryReuse(system);
  const auto cycle =
      workload::BuildCycle(system, {.sites = 3, .objects_per_site = 1});
  system.RunRounds(12);  // ripen

  // Start a trace by hand, let it reach site 1, then crash site 1.
  Site& initiator = system.site(0);
  bool completed = false;
  BackResult outcome = BackResult::kGarbage;
  initiator.back_tracer().set_outcome_observer(
      [&](const TraceOutcome& result) {
        completed = true;
        outcome = result.result;
      });
  initiator.back_tracer().StartTrace(
      initiator.tables().outrefs().begin()->first);
  system.scheduler().RunUntil(system.scheduler().now() + 120);
  system.site(1).CrashRestart();  // frames on site 1 vanish
  system.SettleNetwork();
  // The initiator's pending branch timed out: safely Live.
  EXPECT_TRUE(completed);
  EXPECT_EQ(outcome, BackResult::kLive);
  // No stale visited marks anywhere (restart scrubbed site 1; the Live
  // report or record expiry cleans the others).
  system.AdvanceTime(5000);
  system.RunRound();
  for (SiteId s = 0; s < 3; ++s) {
    for (const auto& [obj, entry] : system.site(s).tables().inrefs()) {
      EXPECT_TRUE(entry.visited.empty()) << "site " << s << " " << obj;
    }
  }
  // A retried trace (everything healthy again) collects the cycle.
  system.RunRounds(3);
  completed = false;
  initiator.back_tracer().StartTrace(
      initiator.tables().outrefs().begin()->first);
  system.SettleNetwork();
  EXPECT_TRUE(completed);
  EXPECT_EQ(outcome, BackResult::kGarbage);
  system.RunRounds(3);
  for (const ObjectId id : cycle.objects) {
    EXPECT_FALSE(system.ObjectExists(id)) << id;
  }
}

TEST(CrashRestartTest, MidLocalTraceCrashDiscardsPendingResult) {
  CollectorConfig config = Config();
  config.local_trace_duration = 200;
  System system(2, config);
  CheckEveryReuse(system);
  const ObjectId obj = system.NewObject(0, 0);
  system.SetPersistentRoot(obj);
  const ObjectId dead = system.NewObject(0, 0);
  system.site(0).StartLocalTrace();
  ASSERT_TRUE(system.site(0).trace_in_flight());
  system.site(0).CrashRestart();
  EXPECT_FALSE(system.site(0).trace_in_flight());
  EXPECT_NO_THROW(system.SettleNetwork());  // stale apply event is discarded
  EXPECT_TRUE(system.ObjectExists(dead));   // that trace never applied
  system.site(0).StartLocalTrace();
  system.SettleNetwork();
  EXPECT_FALSE(system.ObjectExists(dead));  // a fresh trace works
}

TEST(CrashRestartTest, SessionsDieAndTheirGarbageIsCollected) {
  System system(2, Config());
  CheckEveryReuse(system);
  auto session = std::make_unique<Session>(system, 0, 1);
  const ObjectId local_held = session->Create(1);
  const ObjectId remote = system.NewObject(1, 0);
  workload::TetherToRoot(system, remote, 1);
  session->LoadRoot(remote);  // pinned at site 0
  system.RunRounds(2);
  EXPECT_TRUE(system.ObjectExists(local_held));

  system.site(0).CrashRestart();  // app roots and pins vanish
  // The session's holds died with the site; releasing them would unpin twice.
  session->Abandon();
  session.reset();
  system.RunRounds(4);
  EXPECT_FALSE(system.ObjectExists(local_held));  // no app root anymore
  EXPECT_TRUE(system.ObjectExists(remote));       // still tethered at 1
  EXPECT_TRUE(system.CheckSafety().empty()) << system.CheckSafety();
}

TEST(CrashRestartTest, ReRegistrationHealsLostInserts) {
  NetworkConfig net;
  net.latency = 50;
  System system(2, Config(), net);
  CheckEveryReuse(system);
  const ObjectId obj = system.NewObject(1, 0);
  workload::TetherToRoot(system, obj, 1);
  // Site 0 receives the reference; the insert message is lost because site 1
  // is unreachable at that moment.
  system.network().SetSiteDown(1, true);
  bool done = false;
  system.site(0).ReceiveReference(obj, [&] { done = true; });
  system.SettleNetwork();
  EXPECT_FALSE(done);  // ack never came
  // Wire the reference into a rooted holder at site 0 anyway (god mode, as
  // if it had been stored before the crash was noticed).
  const ObjectId holder = system.NewObject(0, 1);
  system.SetPersistentRoot(holder);
  system.site(0).heap().SetSlot(holder, 0, obj);
  // The owner has no inref at all (the tether is local to site 1 and the
  // insert never arrived).
  EXPECT_EQ(system.site(1).tables().FindInref(obj), nullptr);
  // Site 0 crashes and restarts after connectivity returns: re-registration
  // repairs the source list.
  system.network().SetSiteDown(1, false);
  system.site(0).CrashRestart();
  system.SettleNetwork();
  const InrefEntry* inref = system.site(1).tables().FindInref(obj);
  ASSERT_NE(inref, nullptr);
  EXPECT_TRUE(inref->sources.contains(0));
  EXPECT_TRUE(system.CheckReferentialIntegrity().empty())
      << system.CheckReferentialIntegrity();
}

TEST(CrashRestartTest, ReRegistrationToCondemnedInrefIsIgnored) {
  // The sender was down while a back trace condemned the object; its
  // recovery re-registration must not resurrect the flagged inref.
  System system(2, Config());
  CheckEveryReuse(system);
  const ObjectId obj = system.NewObject(1, 0);
  const ObjectId holder = system.NewObject(0, 1);
  system.Wire(holder, 0, obj);  // holder itself is garbage at site 0
  InrefEntry* inref = system.site(1).tables().FindInref(obj);
  ASSERT_NE(inref, nullptr);
  inref->garbage_flagged = true;

  system.site(0).CrashRestart();  // re-registers its outref for obj
  system.SettleNetwork();
  // Still flagged, source list not grown beyond the original entry.
  inref = system.site(1).tables().FindInref(obj);
  ASSERT_NE(inref, nullptr);
  EXPECT_TRUE(inref->garbage_flagged);
  // Collection completes: holder swept at 0, removal update empties the
  // source list, object swept at 1.
  system.RunRounds(4);
  EXPECT_FALSE(system.ObjectExists(obj));
  EXPECT_FALSE(system.ObjectExists(holder));
}

}  // namespace
}  // namespace dgc
