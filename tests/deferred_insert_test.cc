// Tests for the deferred insert protocol (§2's "protocols for sending,
// deferring, or avoiding insert messages while ensuring safety"): operations
// complete immediately while the new outref's pin carries safety until the
// background registration is acknowledged.
#include <gtest/gtest.h>

#include "core/system.h"
#include "mutator/session.h"
#include "workload/builders.h"

namespace dgc {
namespace {

CollectorConfig DeferredConfig() {
  CollectorConfig config;
  config.suspicion_threshold = 2;
  config.estimated_cycle_length = 4;
  config.insert_mode = InsertMode::kDeferred;
  return config;
}

TEST(DeferredInsertTest, OwnerSentReferenceCompletesWithoutAckWait) {
  NetworkConfig net;
  net.latency = 50;
  System system(2, DeferredConfig(), net);
  const ObjectId obj = system.NewObject(1, 0);
  workload::TetherToRoot(system, obj, 1);

  bool done = false;
  // The reference arrived from its own owner (sender == obj.site): the
  // fast path sends the insert ahead and completes immediately.
  system.site(0).ReceiveReference(obj, [&] { done = true; }, /*sender=*/1);
  EXPECT_TRUE(done);
  EXPECT_EQ(system.network().stats().count_of<InsertMsg>(), 1u);
  const OutrefEntry* outref = system.site(0).tables().FindOutref(obj);
  ASSERT_NE(outref, nullptr);
  EXPECT_EQ(outref->pin_count, 1);  // insert barrier retention until ack
  EXPECT_TRUE(outref->clean());

  system.SettleNetwork();
  EXPECT_EQ(outref->pin_count, 0);  // ack released it
  const InrefEntry* inref = system.site(1).tables().FindInref(obj);
  ASSERT_NE(inref, nullptr);
  EXPECT_TRUE(inref->sources.contains(0));
}

TEST(DeferredInsertTest, ThirdPartyReferenceStaysSynchronous) {
  NetworkConfig net;
  net.latency = 50;
  System system(3, DeferredConfig(), net);
  const ObjectId obj = system.NewObject(2, 0);
  workload::TetherToRoot(system, obj, 2);
  bool done = false;
  // Sender 1 is not the owner (2): the sound path is the ack wait.
  system.site(0).ReceiveReference(obj, [&] { done = true; }, /*sender=*/1);
  EXPECT_FALSE(done);
  system.SettleNetwork();
  EXPECT_TRUE(done);
}

TEST(DeferredInsertTest, PublishOwnObjectLatencyBeatsSynchronous) {
  // A session publishing its OWN object into a remote container: under
  // synchronous inserts the write waits for the owner's ack round trip;
  // under deferral the insert rides ahead of the write-ack on the same
  // channel and the operation completes a full round trip earlier.
  const auto measure = [](InsertMode mode) {
    CollectorConfig config = DeferredConfig();
    config.insert_mode = mode;
    NetworkConfig net;
    net.latency = 40;
    System system(2, config, net);
    const ObjectId container = system.NewObject(1, 1);
    workload::TetherToRoot(system, container, 1);
    Session session(system, 0, 1);
    session.LoadRoot(container);
    const ObjectId mine = session.Create(0);
    const SimTime before = system.scheduler().now();
    session.Write(container, 0, mine);
    const SimTime elapsed = system.scheduler().now() - before;
    system.SettleNetwork();
    // Either way, the registration must exist afterwards.
    const InrefEntry* inref = system.site(0).tables().FindInref(mine);
    EXPECT_NE(inref, nullptr);
    if (inref != nullptr) {
      EXPECT_TRUE(inref->sources.contains(1));
    }
    return elapsed;
  };
  const SimTime synchronous = measure(InsertMode::kSynchronous);
  const SimTime deferred = measure(InsertMode::kDeferred);
  EXPECT_LT(deferred, synchronous);
  // Exactly one owner round trip saved.
  EXPECT_GE(synchronous - deferred, 70);
}

TEST(DeferredInsertTest, FifoMakesRegistrationPrecedeCompletion) {
  // The soundness argument itself: when the write-ack arrives at the
  // session's home (= the value's owner), the insert must already have been
  // processed there.
  NetworkConfig net;
  net.latency = 40;
  System system(2, DeferredConfig(), net);
  const ObjectId container = system.NewObject(1, 1);
  workload::TetherToRoot(system, container, 1);
  Session session(system, 0, 1);
  session.LoadRoot(container);
  const ObjectId mine = session.Create(0);
  bool completed = false;
  session.StartWrite(container, 0, mine, [&] {
    completed = true;
    // At this instant the home site (owner of `mine`) must already list
    // site 1 as a source.
    const InrefEntry* inref = system.site(0).tables().FindInref(mine);
    ASSERT_NE(inref, nullptr);
    EXPECT_TRUE(inref->sources.contains(1));
  });
  system.SettleNetwork();
  EXPECT_TRUE(completed);
  // Safe to release right away — registration is in place.
  session.ReleaseAll();
  system.RunRounds(3);
  EXPECT_TRUE(system.ObjectExists(mine));  // reachable via the container
  EXPECT_TRUE(system.CheckSafety().empty()) << system.CheckSafety();
}

TEST(DeferredInsertTest, LostInsertIsResentWithNextTrace) {
  NetworkConfig net;
  net.latency = 5;
  System system(2, DeferredConfig(), net);
  const ObjectId obj = system.NewObject(1, 0);
  workload::TetherToRoot(system, obj, 1);
  system.network().SetSiteDown(1, true);  // the immediate insert is lost
  bool done = false;
  system.site(0).ReceiveReference(obj, [&] { done = true; }, /*sender=*/1);
  EXPECT_TRUE(done);
  system.SettleNetwork();
  EXPECT_EQ(system.site(1).tables().FindInref(obj), nullptr);
  // Owner recovers; the next local trace at site 0 resends the insert.
  system.network().SetSiteDown(1, false);
  system.site(0).StartLocalTrace();
  system.SettleNetwork();
  const InrefEntry* inref = system.site(1).tables().FindInref(obj);
  ASSERT_NE(inref, nullptr);
  EXPECT_TRUE(inref->sources.contains(0));
  EXPECT_EQ(system.site(0).tables().FindOutref(obj)->pin_count, 0);
}

TEST(DeferredInsertTest, DuplicateAcksAreHarmless) {
  NetworkConfig net;
  net.latency = 60;  // flush delay (30) < latency: a resend races the ack
  System system(2, DeferredConfig(), net);
  const ObjectId obj = system.NewObject(1, 0);
  workload::TetherToRoot(system, obj, 1);
  bool done = false;
  system.site(0).ReceiveReference(obj, [&] { done = true; }, /*sender=*/1);
  // Force an extra flush before the first ack returns: two inserts, two
  // acks; the pin must release exactly once.
  system.scheduler().RunUntil(system.scheduler().now() + 35);
  system.site(0).StartLocalTrace();  // flush #2 (entry still unacked)
  system.SettleNetwork();
  const OutrefEntry* outref = system.site(0).tables().FindOutref(obj);
  ASSERT_NE(outref, nullptr);
  EXPECT_EQ(outref->pin_count, 0);
  EXPECT_GE(system.network().stats().count_of<InsertAckMsg>(), 2u);
  EXPECT_TRUE(system.CheckReferentialIntegrity().empty())
      << system.CheckReferentialIntegrity();
}

TEST(DeferredInsertTest, SafetyUnderDeferredChurn) {
  // The insert-barrier pin must keep deferred-mode mutator traffic safe.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    CollectorConfig config = DeferredConfig();
    NetworkConfig net;
    net.latency = 12;
    System system(3, config, net, seed);
    std::vector<ObjectId> containers;
    for (SiteId s = 0; s < 3; ++s) {
      const ObjectId container = system.NewObject(s, 2);
      system.SetPersistentRoot(container);
      containers.push_back(container);
    }
    Rng rng(seed * 33);
    Session session(system, 0, 1);
    for (int step = 0; step < 30; ++step) {
      const ObjectId container = containers[rng.NextBelow(3)];
      if (!session.Holds(container)) session.LoadRoot(container);
      if (rng.NextBool(0.6)) {
        const ObjectId fresh = session.Create(0);
        session.Write(container, rng.NextBelow(2), fresh);
        session.Release(fresh);
      } else {
        session.Write(container, rng.NextBelow(2), kInvalidObject);
      }
      if (step % 5 == 4) system.RunRoundStaggered(5);
      ASSERT_TRUE(system.CheckSafety().empty())
          << "seed " << seed << " step " << step << ": "
          << system.CheckSafety();
    }
    session.ReleaseAll();
    system.RunRounds(15);
    EXPECT_TRUE(system.CheckCompleteness().empty())
        << "seed " << seed << ": " << system.CheckCompleteness();
  }
}

}  // namespace
}  // namespace dgc
