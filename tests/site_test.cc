// Site-level protocol tests: insert/update message edge cases, periodic
// update refresh, lost-removal recovery, pins, app roots, and trace
// lifecycle assertions — the glue logic of core::Site.
#include <gtest/gtest.h>

#include "core/system.h"
#include "workload/builders.h"

namespace dgc {
namespace {

CollectorConfig Config() {
  CollectorConfig config;
  config.suspicion_threshold = 2;
  config.estimated_cycle_length = 4;
  return config;
}

TEST(SiteProtocolTest, InsertAddsSourceAtConservativeDistanceOne) {
  System system(2, Config());
  const ObjectId obj = system.NewObject(1, 0);
  workload::TetherToRoot(system, obj, 1);  // keep alive
  system.network().Send(0, 1, InsertMsg{obj});
  system.SettleNetwork();
  const InrefEntry* inref = system.site(1).tables().FindInref(obj);
  ASSERT_NE(inref, nullptr);
  ASSERT_TRUE(inref->sources.contains(0));
  EXPECT_EQ(inref->sources.at(0), 1u);
}

TEST(SiteProtocolTest, InsertAcksToThePinnedSite) {
  System system(3, Config());
  const ObjectId obj = system.NewObject(2, 0);
  workload::TetherToRoot(system, obj, 2);
  // Site 0 receives the reference (case 4): creates a pinned outref and
  // registers with the owner; the ack releases the pin.
  bool done = false;
  system.site(0).ReceiveReference(obj, [&] { done = true; });
  const OutrefEntry* outref = system.site(0).tables().FindOutref(obj);
  ASSERT_NE(outref, nullptr);
  EXPECT_EQ(outref->pin_count, 1);
  EXPECT_FALSE(done);  // synchronous insert: waits for the ack
  system.SettleNetwork();
  EXPECT_TRUE(done);
  EXPECT_EQ(outref->pin_count, 0);
  EXPECT_TRUE(outref->clean_override);  // created clean, stays until a trace
}

TEST(SiteProtocolTest, ConcurrentReceiversShareThePendingInsert) {
  NetworkConfig net;
  net.latency = 50;
  System system(2, Config(), net);
  const ObjectId obj = system.NewObject(1, 0);
  workload::TetherToRoot(system, obj, 1);
  int completions = 0;
  system.site(0).ReceiveReference(obj, [&] { ++completions; });
  // Second arrival before the ack: the outref already exists, but its insert
  // is unacknowledged, so this arrival waits for the same ack.
  system.site(0).ReceiveReference(obj, [&] { ++completions; });
  EXPECT_EQ(completions, 0);
  system.SettleNetwork();
  EXPECT_EQ(completions, 2);
  // Only one insert went out.
  EXPECT_EQ(system.network().stats().count_of<InsertMsg>(), 1u);
}

TEST(SiteProtocolTest, UpdateForUnknownInrefIgnored) {
  System system(2, Config());
  const ObjectId phantom{1, 999};
  system.network().Send(
      0, 1, UpdateMsg{{UpdateEntry{phantom, /*removed=*/false, 7}}});
  system.network().Send(0, 1,
                        UpdateMsg{{UpdateEntry{phantom, /*removed=*/true, 0}}});
  EXPECT_NO_THROW(system.SettleNetwork());
  EXPECT_EQ(system.site(1).tables().FindInref(phantom), nullptr);
}

TEST(SiteProtocolTest, UpdateFromUnlistedSourceDoesNotAddIt) {
  System system(3, Config());
  const ObjectId obj = system.NewObject(2, 0);
  const ObjectId holder = system.NewObject(0, 1);
  system.SetPersistentRoot(holder);
  system.Wire(holder, 0, obj);
  // Site 1 never held the reference; its distance report must not conjure a
  // source entry (only inserts add sources).
  system.network().Send(1, 2,
                        UpdateMsg{{UpdateEntry{obj, /*removed=*/false, 3}}});
  system.SettleNetwork();
  const InrefEntry* inref = system.site(2).tables().FindInref(obj);
  ASSERT_NE(inref, nullptr);
  EXPECT_FALSE(inref->sources.contains(1));
}

TEST(SiteProtocolTest, PeriodicRefreshHealsLostDistanceUpdates) {
  CollectorConfig config = Config();
  config.update_refresh_period = 2;
  System system(2, config);
  const ObjectId obj = system.NewObject(1, 0);
  const ObjectId holder = system.NewObject(0, 1);
  system.SetPersistentRoot(holder);
  system.Wire(holder, 0, obj);
  system.RunRounds(2);  // distance 1 reported
  // Corrupt the target's view (simulating an earlier lost update).
  system.site(1).tables().FindInref(obj)->sources.at(0) = 40;
  system.RunRounds(3);  // a refresh trace resends distance 1
  EXPECT_EQ(system.site(1).tables().FindInref(obj)->distance(), 1u);
}

TEST(SiteProtocolTest, RefreshDisabledLeavesStaleDistance) {
  CollectorConfig config = Config();
  config.update_refresh_period = 0;
  System system(2, config);
  const ObjectId obj = system.NewObject(1, 0);
  const ObjectId holder = system.NewObject(0, 1);
  system.SetPersistentRoot(holder);
  system.Wire(holder, 0, obj);
  system.RunRounds(2);
  system.site(1).tables().FindInref(obj)->sources.at(0) = 40;
  system.RunRounds(3);  // no change at the source: no update sent
  EXPECT_EQ(system.site(1).tables().FindInref(obj)->distance(), 40u);
}

TEST(SiteProtocolTest, LostRemovalIsRetransmittedAfterTheLinkHeals) {
  // The periodic refresh resends distances of outrefs that still exist; a
  // removal names an outref that is gone, so only reliable delivery can
  // bring a removal lost on a severed link to the owner.
  NetworkConfig net;
  net.reliable_delivery = true;
  System system(2, Config(), net);
  const ObjectId obj = system.NewObject(1, 0);
  const ObjectId holder = system.NewObject(0, 1);
  system.SetPersistentRoot(holder);
  system.Wire(holder, 0, obj);
  system.RunRounds(2);
  ASSERT_NE(system.site(1).tables().FindInref(obj), nullptr);

  system.network().SetLinkDown(0, 1, true);
  system.Unwire(holder, 0);
  system.site(0).StartLocalTrace();  // trims the outref, sends the removal
  system.scheduler().RunUntil(system.scheduler().now() + 500);
  EXPECT_EQ(system.site(0).tables().FindOutref(obj), nullptr);
  const InrefEntry* inref = system.site(1).tables().FindInref(obj);
  ASSERT_NE(inref, nullptr) << "the removal crossed a severed link";
  EXPECT_TRUE(inref->sources.contains(0));
  EXPECT_GT(system.network().stats().retransmits, 0u);

  system.network().SetLinkDown(0, 1, false);
  system.SettleNetwork();  // a retransmission lands after the heal
  EXPECT_EQ(system.site(1).tables().FindInref(obj), nullptr);
  system.RunRound();
  EXPECT_FALSE(system.ObjectExists(obj));
  EXPECT_TRUE(system.CheckSafety().empty()) << system.CheckSafety();
}

TEST(SiteProtocolTest, SecondTraceWhileInFlightThrows) {
  CollectorConfig config = Config();
  config.local_trace_duration = 100;
  System system(1, config);
  system.site(0).StartLocalTrace();
  EXPECT_THROW(system.site(0).StartLocalTrace(), InvariantViolation);
  system.SettleNetwork();
  EXPECT_NO_THROW(system.site(0).StartLocalTrace());
  system.SettleNetwork();
}

TEST(SiteProtocolTest, AppRootCountsNest) {
  System system(1, Config());
  const ObjectId obj = system.NewObject(0, 0);
  Site& site = system.site(0);
  site.AddAppRoot(obj);
  site.AddAppRoot(obj);
  site.RemoveAppRoot(obj);
  EXPECT_TRUE(site.IsRootObject(obj));
  system.RunRound();
  EXPECT_TRUE(system.ObjectExists(obj));
  site.RemoveAppRoot(obj);
  EXPECT_FALSE(site.IsRootObject(obj));
  EXPECT_THROW(site.RemoveAppRoot(obj), InvariantViolation);
  system.RunRound();
  EXPECT_FALSE(system.ObjectExists(obj));
}

TEST(SiteProtocolTest, PinsNestAndForbidTrim) {
  System system(2, Config());
  const ObjectId obj = system.NewObject(1, 0);
  const ObjectId holder = system.NewObject(0, 1);
  system.SetPersistentRoot(holder);
  system.Wire(holder, 0, obj);
  system.RunRound();
  Site& site0 = system.site(0);
  site0.PinOutref(obj);
  site0.PinOutref(obj);
  system.Unwire(holder, 0);
  system.RunRounds(2);
  EXPECT_NE(site0.tables().FindOutref(obj), nullptr);  // pinned: kept
  EXPECT_TRUE(system.ObjectExists(obj));
  site0.UnpinOutref(obj);
  system.RunRounds(2);
  EXPECT_NE(site0.tables().FindOutref(obj), nullptr);  // one pin left
  site0.UnpinOutref(obj);
  system.RunRounds(2);
  EXPECT_EQ(site0.tables().FindOutref(obj), nullptr);
  EXPECT_FALSE(system.ObjectExists(obj));
}

TEST(SiteProtocolTest, ExtensionHandlerConsumesBeforeBuiltins) {
  System system(2, Config());
  int seen = 0;
  system.site(1).SetExtensionHandler([&](const Envelope& envelope) {
    if (std::holds_alternative<InsertMsg>(envelope.payload)) {
      ++seen;
      return true;  // swallow it
    }
    return false;
  });
  const ObjectId obj = system.NewObject(1, 0);
  system.network().Send(0, 1, InsertMsg{obj});
  system.SettleNetwork();
  EXPECT_EQ(seen, 1);
  EXPECT_EQ(system.site(1).tables().FindInref(obj), nullptr);  // not processed
}

TEST(SiteProtocolTest, GarbageFlaggedEntryRemovedByRemovalUpdate) {
  System system(2, Config());
  const ObjectId obj = system.NewObject(1, 0);
  const ObjectId holder = system.NewObject(0, 1);
  system.Wire(holder, 0, obj);  // holder itself is garbage
  InrefEntry* inref = system.site(1).tables().FindInref(obj);
  ASSERT_NE(inref, nullptr);
  inref->garbage_flagged = true;
  system.RunRounds(3);
  // holder swept at site 0 -> outref trimmed -> removal update -> entry gone.
  EXPECT_EQ(system.site(1).tables().FindInref(obj), nullptr);
  EXPECT_FALSE(system.ObjectExists(obj));
}

TEST(SiteProtocolTest, WireLocalTargetTouchesNoTables) {
  System system(2, Config());
  const ObjectId a = system.NewObject(0, 1);
  const ObjectId b = system.NewObject(0, 0);
  system.Wire(a, 0, b);
  EXPECT_TRUE(system.site(0).tables().outrefs().empty());
  EXPECT_TRUE(system.site(0).tables().inrefs().empty());
}

// --- Applying a trace result ------------------------------------------------

TEST(SiteTraceApplyTest, OutrefReachedOnlyAtInfinityIsKept) {
  // The holder's only root is an inref whose sole source reports infinity.
  // The suspect phase still reaches the holder's outref, at infinity, and a
  // reached outref is kept: "untraced" is not the same as distance infinity.
  System system(3, Config());
  const ObjectId target = system.NewObject(2, 0);
  workload::TetherToRoot(system, target, 2);
  const ObjectId holder = system.NewObject(0, 1);
  system.Wire(holder, 0, target);
  Site& site = system.site(0);
  site.tables().AddInrefSource(holder, 1, kDistanceInfinity);
  site.StartLocalTrace();
  const OutrefEntry* outref = site.tables().FindOutref(target);
  ASSERT_NE(outref, nullptr);
  EXPECT_EQ(outref->distance, kDistanceInfinity);
  EXPECT_FALSE(outref->traced_clean);
  EXPECT_TRUE(system.ObjectExists(holder));
  EXPECT_EQ(site.stats().outrefs_trimmed, 0u);
  EXPECT_EQ(site.stats().update_entries_sent, 0u);  // no removal entry
}

TEST(SiteTraceApplyTest, ApplyWalksTablesThatChangedMidTrace) {
  CollectorConfig config = Config();
  // Applies 7 ticks after computing: before the case-4 insert's ack, which
  // needs two hops of the default latency 5.
  config.local_trace_duration = 7;
  System system(3, config);
  const ObjectId dropped = system.NewObject(1, 0);
  const ObjectId cleaned = system.NewObject(2, 0);
  const ObjectId fresh = system.NewObject(2, 0);
  for (const ObjectId id : {dropped, cleaned, fresh}) {
    workload::TetherToRoot(system, id, id.site);
  }
  // Site 0: an object held only by an inref, and two unreachable holders
  // whose outrefs no trace reaches.
  Site& site = system.site(0);
  const ObjectId inrefd = system.NewObject(0, 0);
  site.tables().AddInrefSource(inrefd, 1, 1);
  system.Wire(system.NewObject(0, 1), 0, dropped);
  system.Wire(system.NewObject(0, 1), 0, cleaned);

  site.StartLocalTrace();
  ASSERT_TRUE(site.trace_in_flight());
  // Mid-trace: the snapshot inref loses its last source, a received
  // reference creates an outref outside the snapshot (case 4), and another
  // receipt barrier-cleans one unreached snapshot outref (case 3).
  EXPECT_TRUE(site.tables().RemoveInrefSource(inrefd, 1));
  site.ReceiveReference(fresh, [] {});
  site.ReceiveReference(cleaned, [] {});
  system.scheduler().RunUntil(system.now() + 7);
  ASSERT_FALSE(site.trace_in_flight());

  EXPECT_EQ(site.tables().FindInref(inrefd), nullptr);
  const OutrefEntry* created = site.tables().FindOutref(fresh);
  ASSERT_NE(created, nullptr);
  EXPECT_EQ(created->distance, 1u);
  EXPECT_EQ(created->pin_count, 1);
  EXPECT_TRUE(created->clean_override);
  EXPECT_EQ(site.tables().FindOutref(dropped), nullptr);
  EXPECT_EQ(site.stats().outrefs_trimmed, 1u);
  EXPECT_EQ(site.stats().updates_sent, 1u);
  EXPECT_EQ(site.stats().update_entries_sent, 1u);  // the one removal
  const OutrefEntry* kept = site.tables().FindOutref(cleaned);
  ASSERT_NE(kept, nullptr);
  EXPECT_TRUE(kept->clean_override);
  system.SettleNetwork();  // the removal reached the only source's owner
  EXPECT_EQ(system.site(1).tables().FindInref(dropped), nullptr);
}

}  // namespace
}  // namespace dgc
