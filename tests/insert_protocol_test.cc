// Tests for the insert protocol (§2; ML94's synchronous inserts): a reference
// arriving at a site with no outref for it (§6.1.2 case 4) pins a new clean
// outref, registers the site with the owner, and completes only on the
// owner's ack. A lost insert is resent with the site's next local trace; the
// operation waits for it, so a lossy network never lets the owner reclaim an
// object a mutator still reaches.
#include <gtest/gtest.h>

#include "core/system.h"
#include "mutator/session.h"
#include "workload/builders.h"

namespace dgc {
namespace {

CollectorConfig Config() {
  CollectorConfig config;
  config.suspicion_threshold = 2;
  config.estimated_cycle_length = 4;
  return config;
}

TEST(InsertProtocolTest, LostInsertNeverLetsTheOwnerReclaim) {
  // A session on site 0 publishes its own object into a rooted container on
  // site 1. The network loses site 1's insert; the write-ack queued behind
  // it must not complete the write before the resent insert registers site
  // 1 with the owner.
  NetworkConfig net;
  net.latency = 40;
  System system(2, Config(), net);
  const ObjectId container = system.NewObject(1, 1);
  workload::TetherToRoot(system, container, 1);
  Session session(system, 0, 1);
  session.LoadRoot(container);
  const ObjectId mine = session.Create(0);

  bool dropped = false;
  system.network().set_dispatcher([&](Envelope&& envelope) {
    const auto* insert = std::get_if<InsertMsg>(&envelope.payload);
    if (!dropped && insert != nullptr && envelope.from == 1 &&
        insert->ref == mine) {
      dropped = true;
      return;
    }
    system.site(envelope.to).HandleMessage(envelope);
  });

  bool completed = false;
  session.StartWrite(container, 0, mine, [&] { completed = true; });
  while (!completed) {
    if (!system.scheduler().RunOne()) system.RunRound();
  }
  ASSERT_TRUE(dropped);

  // The session lets go at once, and the owner traces alone.
  session.Release(mine);
  system.site(0).StartLocalTrace();
  EXPECT_TRUE(system.ObjectExists(mine));
  EXPECT_TRUE(system.CheckSafety().empty()) << system.CheckSafety();
  const InrefEntry* inref = system.site(0).tables().FindInref(mine);
  ASSERT_NE(inref, nullptr);
  EXPECT_TRUE(inref->sources.contains(1));
}

TEST(InsertProtocolTest, RetriedWriteWaitsForThePendingInsert) {
  // The same script through the blocking write: when the world stalls it
  // resends the write, which reaches site 1 while the outref's insert still
  // waits for its ack. That retried arrival must wait for the ack as well.
  NetworkConfig net;
  net.latency = 40;
  System system(2, Config(), net);
  const ObjectId container = system.NewObject(1, 1);
  workload::TetherToRoot(system, container, 1);
  Session session(system, 0, 1);
  session.LoadRoot(container);
  const ObjectId mine = session.Create(0);

  bool dropped = false;
  system.network().set_dispatcher([&](Envelope&& envelope) {
    const auto* insert = std::get_if<InsertMsg>(&envelope.payload);
    if (!dropped && insert != nullptr && envelope.from == 1 &&
        insert->ref == mine) {
      dropped = true;
      return;
    }
    system.site(envelope.to).HandleMessage(envelope);
  });

  session.Write(container, 0, mine);
  ASSERT_TRUE(dropped);

  session.Release(mine);
  system.site(0).StartLocalTrace();
  EXPECT_TRUE(system.ObjectExists(mine));
  EXPECT_TRUE(system.CheckSafety().empty()) << system.CheckSafety();
  const InrefEntry* inref = system.site(0).tables().FindInref(mine);
  ASSERT_NE(inref, nullptr);
  EXPECT_TRUE(inref->sources.contains(1));
}

TEST(InsertProtocolTest, LostInsertIsResentWithNextTrace) {
  NetworkConfig net;
  net.latency = 5;
  System system(2, Config(), net);
  const ObjectId obj = system.NewObject(1, 0);
  workload::TetherToRoot(system, obj, 1);
  system.network().SetSiteDown(1, true);  // the first insert is lost
  int completions = 0;
  system.site(0).ReceiveReference(obj, [&] { ++completions; });
  system.SettleNetwork();
  EXPECT_EQ(completions, 0);  // still waiting for the owner's ack
  EXPECT_EQ(system.site(1).tables().FindInref(obj), nullptr);
  EXPECT_EQ(system.site(0).tables().FindOutref(obj)->pin_count, 1);

  // Owner recovers; the next local trace at site 0 resends the insert.
  system.network().SetSiteDown(1, false);
  system.site(0).StartLocalTrace();
  system.SettleNetwork();
  EXPECT_EQ(completions, 1);
  const InrefEntry* inref = system.site(1).tables().FindInref(obj);
  ASSERT_NE(inref, nullptr);
  EXPECT_TRUE(inref->sources.contains(0));
  EXPECT_EQ(system.site(0).tables().FindOutref(obj)->pin_count, 0);
}

TEST(InsertProtocolTest, DuplicateAcksReleaseThePinOnce) {
  NetworkConfig net;
  net.latency = 60;  // a resend at +35 races the first ack (back at +120)
  System system(2, Config(), net);
  const ObjectId obj = system.NewObject(1, 0);
  workload::TetherToRoot(system, obj, 1);
  int completions = 0;
  system.site(0).ReceiveReference(obj, [&] { ++completions; });
  system.scheduler().RunUntil(system.scheduler().now() + 35);
  system.site(0).StartLocalTrace();  // resends the still-unacked insert
  system.SettleNetwork();
  // Two inserts, two acks: the first releases the pin and runs the
  // continuation, the second finds nothing left to release.
  EXPECT_EQ(system.network().stats().count_of<InsertMsg>(), 2u);
  EXPECT_EQ(system.network().stats().count_of<InsertAckMsg>(), 2u);
  EXPECT_EQ(completions, 1);
  const OutrefEntry* outref = system.site(0).tables().FindOutref(obj);
  ASSERT_NE(outref, nullptr);
  EXPECT_EQ(outref->pin_count, 0);
  EXPECT_TRUE(system.CheckReferentialIntegrity().empty())
      << system.CheckReferentialIntegrity();
}

}  // namespace
}  // namespace dgc
