// Unit tests for the simulated network: FIFO channels, fault injection,
// self-delivery, statistics. The socket transport's wire codec has its own
// suite, wire_test.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <tuple>
#include <variant>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "net/network.h"
#include "net/wire.h"
#include "sim/scheduler.h"

namespace dgc {
namespace {

struct NetFixture : ::testing::Test {
  Scheduler scheduler;
  NetworkConfig config;
  std::vector<std::vector<Envelope>> received;

  std::unique_ptr<Network> MakeNetwork(std::size_t sites) {
    auto network = std::make_unique<Network>(scheduler, config, Rng(1));
    received.resize(sites);
    for (SiteId s = 0; s < sites; ++s) {
      network->RegisterSite(s, [this, s](const Envelope& envelope) {
        received[s].push_back(envelope);
      });
    }
    return network;
  }

  static Payload Probe(std::uint64_t value) {
    return GlobalGcControlMsg{value, GlobalGcControlMsg::Phase::kProbe, value};
  }
  static std::uint64_t ProbeValue(const Envelope& envelope) {
    return std::get<GlobalGcControlMsg>(envelope.payload).value;
  }
};

TEST_F(NetFixture, DeliversWithLatency) {
  config.latency = 7;
  auto net = MakeNetwork(2);
  net->Send(0, 1, Probe(42));
  EXPECT_TRUE(received[1].empty());
  scheduler.RunUntilIdle();
  ASSERT_EQ(received[1].size(), 1u);
  EXPECT_EQ(ProbeValue(received[1][0]), 42u);
  EXPECT_EQ(scheduler.now(), 7);
}

TEST_F(NetFixture, PerChannelFifoUnderJitter) {
  config.latency = 5;
  config.latency_jitter = 50;
  auto net = MakeNetwork(2);
  for (std::uint64_t i = 0; i < 100; ++i) net->Send(0, 1, Probe(i));
  scheduler.RunUntilIdle();
  ASSERT_EQ(received[1].size(), 100u);
  for (std::uint64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(ProbeValue(received[1][i]), i) << "reordered at " << i;
  }
}

TEST_F(NetFixture, SelfDeliveryIsAsynchronousAndUncounted) {
  auto net = MakeNetwork(1);
  net->Send(0, 0, Probe(1));
  EXPECT_TRUE(received[0].empty());  // not synchronous
  scheduler.RunUntilIdle();
  EXPECT_EQ(received[0].size(), 1u);
  EXPECT_EQ(net->stats().inter_site_sent, 0u);
  EXPECT_EQ(net->stats().self_deliveries, 1u);
}

TEST_F(NetFixture, DownSiteDropsTraffic) {
  auto net = MakeNetwork(2);
  net->SetSiteDown(1, true);
  net->Send(0, 1, Probe(1));
  scheduler.RunUntilIdle();
  EXPECT_TRUE(received[1].empty());
  EXPECT_EQ(net->stats().dropped, 1u);
  net->SetSiteDown(1, false);
  net->Send(0, 1, Probe(2));
  scheduler.RunUntilIdle();
  EXPECT_EQ(received[1].size(), 1u);
}

TEST_F(NetFixture, CrashAfterSendLosesInFlightMessage) {
  config.latency = 10;
  auto net = MakeNetwork(2);
  net->Send(0, 1, Probe(1));
  scheduler.RunUntil(5);
  net->SetSiteDown(1, true);
  scheduler.RunUntilIdle();
  EXPECT_TRUE(received[1].empty());
  EXPECT_EQ(net->stats().dropped, 1u);
}

TEST_F(NetFixture, SeveredLinkIsBidirectionalAndRestorable) {
  auto net = MakeNetwork(3);
  net->SetLinkDown(0, 1, true);
  net->Send(0, 1, Probe(1));
  net->Send(1, 0, Probe(2));
  net->Send(0, 2, Probe(3));  // unrelated link unaffected
  scheduler.RunUntilIdle();
  EXPECT_TRUE(received[1].empty());
  EXPECT_TRUE(received[0].empty());
  EXPECT_EQ(received[2].size(), 1u);
  net->SetLinkDown(0, 1, false);
  net->Send(0, 1, Probe(4));
  scheduler.RunUntilIdle();
  EXPECT_EQ(received[1].size(), 1u);
}

TEST_F(NetFixture, LossInjectionDropsApproximateFraction) {
  config.drop_probability = 0.3;
  auto net = MakeNetwork(2);
  for (int i = 0; i < 1000; ++i) net->Send(0, 1, Probe(i));
  scheduler.RunUntilIdle();
  EXPECT_GT(received[1].size(), 600u);
  EXPECT_LT(received[1].size(), 800u);
  EXPECT_EQ(received[1].size() + net->stats().dropped, 1000u);
}

TEST_F(NetFixture, PerKindCountersAndBytes) {
  auto net = MakeNetwork(2);
  net->Send(0, 1, InsertMsg{ObjectId{1, 1}, true});
  net->Send(0, 1, InsertMsg{ObjectId{1, 2}, true});
  net->Send(0, 1, BackReportMsg{TraceId{0, 1}, BackResult::kLive});
  scheduler.RunUntilIdle();
  EXPECT_EQ(net->stats().count_of<InsertMsg>(), 2u);
  EXPECT_EQ(net->stats().count_of<BackReportMsg>(), 1u);
  EXPECT_EQ(net->stats().count_of<UpdateMsg>(), 0u);
  // Unbatched, each payload is one wire message: a 5-byte frame header
  // (length prefix and type byte) and its envelope, whose from, to and
  // variant tag take 9 bytes before the payload's fields: 17 for an insert
  // (a 12-byte object id, the pin byte and a u32 distance), 9 for a report
  // (an 8-byte trace id and the outcome byte).
  EXPECT_EQ(net->stats().logical_bytes, 2u * (5 + 9 + 17) + (5 + 9 + 9));
  EXPECT_EQ(net->stats().wire_bytes, net->stats().logical_bytes);
}

TEST_F(NetFixture, InFlightTracksUndeliveredMessages) {
  config.latency = 10;
  auto net = MakeNetwork(2);
  net->Send(0, 1, Probe(1));
  net->Send(0, 1, Probe(2));
  EXPECT_EQ(net->in_flight(), 2u);
  scheduler.RunUntilIdle();
  EXPECT_EQ(net->in_flight(), 0u);
}

TEST_F(NetFixture, WithoutBatchingWireEqualsLogical) {
  auto net = MakeNetwork(2);
  for (int i = 0; i < 10; ++i) net->Send(0, 1, Probe(i));
  scheduler.RunUntilIdle();
  EXPECT_EQ(net->stats().inter_site_sent, 10u);
  EXPECT_EQ(net->stats().wire_messages, 10u);
}

TEST_F(NetFixture, BatchingCoalescesAWindowIntoOneWireMessage) {
  config.batch_window = 10;
  config.latency = 5;
  auto net = MakeNetwork(2);
  for (int i = 0; i < 10; ++i) net->Send(0, 1, Probe(i));
  scheduler.RunUntilIdle();
  ASSERT_EQ(received[1].size(), 10u);
  EXPECT_EQ(net->stats().inter_site_sent, 10u);   // logical count unchanged
  EXPECT_EQ(net->stats().wire_messages, 1u);      // one piggybacked batch
  // One frame header for the batch instead of one per payload; a probe's
  // envelope is 26 bytes (9 of addressing and tag, two u64s and a phase).
  const std::size_t envelope = wire::EncodedSize(Envelope{0, 1, Probe(0)});
  EXPECT_EQ(envelope, 26u);
  EXPECT_EQ(net->stats().wire_bytes, 5 + 10 * envelope);
  EXPECT_EQ(net->stats().logical_bytes, 10 * (5 + envelope));
  // Delivery order within the batch preserved.
  for (std::uint64_t i = 0; i < 10; ++i) {
    EXPECT_EQ(ProbeValue(received[1][i]), i);
  }
}

TEST_F(NetFixture, BatchingDelaysDeliveryByTheWindow) {
  config.batch_window = 10;
  config.latency = 5;
  auto net = MakeNetwork(2);
  net->Send(0, 1, Probe(1));
  scheduler.RunUntil(14);  // window (10) + latency (5) not yet elapsed
  EXPECT_TRUE(received[1].empty());
  scheduler.RunUntilIdle();
  EXPECT_EQ(received[1].size(), 1u);
  EXPECT_EQ(scheduler.now(), 15);
}

TEST_F(NetFixture, SeparateWindowsSeparateBatches) {
  config.batch_window = 10;
  auto net = MakeNetwork(2);
  net->Send(0, 1, Probe(1));
  scheduler.RunUntilIdle();  // first window flushes
  net->Send(0, 1, Probe(2));
  scheduler.RunUntilIdle();
  EXPECT_EQ(net->stats().wire_messages, 2u);
  EXPECT_EQ(received[1].size(), 2u);
}

TEST_F(NetFixture, BatchesPerChannelNotPerSitePair) {
  config.batch_window = 10;
  auto net = MakeNetwork(3);
  net->Send(0, 1, Probe(1));
  net->Send(0, 2, Probe(2));
  net->Send(1, 0, Probe(3));  // reverse direction = its own channel
  scheduler.RunUntilIdle();
  EXPECT_EQ(net->stats().wire_messages, 3u);
}

TEST_F(NetFixture, DroppedBatchLosesAllContents) {
  config.batch_window = 10;
  config.drop_probability = 1.0;
  auto net = MakeNetwork(2);
  for (int i = 0; i < 5; ++i) net->Send(0, 1, Probe(i));
  scheduler.RunUntilIdle();
  EXPECT_TRUE(received[1].empty());
  EXPECT_EQ(net->stats().dropped, 5u);
  EXPECT_EQ(net->in_flight(), 0u);
}

TEST_F(NetFixture, BatchingPreservesCrossBatchFifo) {
  config.batch_window = 7;
  config.latency = 5;
  config.latency_jitter = 40;
  auto net = MakeNetwork(2);
  for (std::uint64_t i = 0; i < 30; ++i) {
    net->Send(0, 1, Probe(i));
    scheduler.RunUntil(scheduler.now() + 3);  // spread across several windows
  }
  scheduler.RunUntilIdle();
  ASSERT_EQ(received[1].size(), 30u);
  for (std::uint64_t i = 0; i < 30; ++i) {
    EXPECT_EQ(ProbeValue(received[1][i]), i) << "reordered at " << i;
  }
  EXPECT_GT(net->stats().wire_messages, 1u);
  EXPECT_LT(net->stats().wire_messages, 30u);
}

TEST_F(NetFixture, FlushedBatchEntriesAreErasedNotParked) {
  config.batch_window = 10;
  auto net = MakeNetwork(3);
  net->Send(0, 1, Probe(1));
  net->Send(0, 2, Probe(2));
  EXPECT_EQ(net->pending_batch_channels(), 2u);
  scheduler.RunUntilIdle();
  // Flushing closes the window: the count tracks channels with an open
  // window, not every pair that ever talked.
  EXPECT_EQ(net->pending_batch_channels(), 0u);
  net->Send(0, 1, Probe(3));  // opens a new window and re-arms the timer
  EXPECT_EQ(net->pending_batch_channels(), 1u);
  scheduler.RunUntilIdle();
  EXPECT_EQ(net->pending_batch_channels(), 0u);
  EXPECT_EQ(received[1].size(), 2u);
  EXPECT_EQ(received[2].size(), 1u);
}

// --- Fault bookkeeping -----------------------------------------------------

TEST_F(NetFixture, RestoringFaultsClearsEveryDownFlag) {
  auto net = MakeNetwork(4);
  // Fault and heal every site and several links, naming each link in
  // either order: a link is one record, whichever endpoint comes first.
  for (SiteId s = 0; s < 4; ++s) {
    net->SetSiteDown(s, true);
    net->SetLinkDown(s, (s + 1) % 4, true);
  }
  for (SiteId s = 0; s < 4; ++s) {
    EXPECT_TRUE(net->IsSiteDown(s));
    EXPECT_TRUE(net->IsLinkDown((s + 1) % 4, s));
  }
  EXPECT_FALSE(net->IsLinkDown(0, 2));
  for (SiteId s = 0; s < 4; ++s) {
    net->SetSiteDown(s, false);
    net->SetLinkDown((s + 1) % 4, s, false);
  }
  for (SiteId s = 0; s < 4; ++s) {
    EXPECT_FALSE(net->IsSiteDown(s));
    EXPECT_FALSE(net->IsLinkDown(s, (s + 1) % 4));
  }
  // Redundant restores stay no-ops.
  net->SetSiteDown(2, false);
  net->SetLinkDown(0, 1, false);
  EXPECT_FALSE(net->IsSiteDown(2));
  EXPECT_FALSE(net->IsLinkDown(0, 1));
  // An id no site registered is never down.
  EXPECT_FALSE(net->IsSiteDown(9));
  EXPECT_FALSE(net->IsLinkDown(0, 9));
}

// --- Reliable channels -----------------------------------------------------

TEST_F(NetFixture, ReliableDeliveryRecoversEveryLoss) {
  config.reliable_delivery = true;
  config.drop_probability = 0.3;
  config.max_retransmit_attempts = 16;  // headroom: no entry may exhaust
  auto net = MakeNetwork(2);
  for (int i = 0; i < 500; ++i) net->Send(0, 1, Probe(i));
  scheduler.RunUntilIdle();
  ASSERT_EQ(received[1].size(), 500u);
  for (std::uint64_t i = 0; i < 500; ++i) {
    EXPECT_EQ(ProbeValue(received[1][i]), i) << "reordered at " << i;
  }
  EXPECT_EQ(net->stats().dropped, 0u);
  EXPECT_GT(net->stats().retransmits, 0u);
  EXPECT_GT(net->stats().transmissions_lost, 0u);
  EXPECT_EQ(net->in_flight(), 0u);
  EXPECT_EQ(net->unacked_wire_messages(), 0u);
}

TEST_F(NetFixture, ReliableDeliveryPreservesFifoUnderLossAndJitter) {
  config.reliable_delivery = true;
  config.drop_probability = 0.25;
  config.max_retransmit_attempts = 16;
  config.latency_jitter = 30;
  auto net = MakeNetwork(2);
  for (int i = 0; i < 200; ++i) {
    net->Send(0, 1, Probe(i));
    net->Send(1, 0, Probe(1000 + i));
  }
  scheduler.RunUntilIdle();
  ASSERT_EQ(received[1].size(), 200u);
  ASSERT_EQ(received[0].size(), 200u);
  for (std::uint64_t i = 0; i < 200; ++i) {
    EXPECT_EQ(ProbeValue(received[1][i]), i);
    EXPECT_EQ(ProbeValue(received[0][i]), 1000 + i);
  }
}

TEST_F(NetFixture, ReliableDeliveryIsExactlyOnce) {
  // Heavy ack loss forces duplicate transmissions; the receiver must
  // suppress every duplicate.
  config.reliable_delivery = true;
  config.drop_probability = 0.5;
  config.max_retransmit_attempts = 24;  // headroom: no entry may exhaust
  auto net = MakeNetwork(2);
  for (int i = 0; i < 100; ++i) net->Send(0, 1, Probe(i));
  scheduler.RunUntilIdle();
  EXPECT_EQ(received[1].size(), 100u);
  EXPECT_GT(net->stats().dup_suppressed, 0u);
  EXPECT_EQ(net->stats().inter_site_delivered, 100u);
}

TEST_F(NetFixture, ReliableLosslessPathSendsNoRetransmits) {
  config.reliable_delivery = true;
  auto net = MakeNetwork(2);
  for (int i = 0; i < 50; ++i) net->Send(0, 1, Probe(i));
  scheduler.RunUntilIdle();
  EXPECT_EQ(received[1].size(), 50u);
  EXPECT_EQ(net->stats().retransmits, 0u);
  EXPECT_EQ(net->stats().dup_suppressed, 0u);
  EXPECT_EQ(net->in_flight(), 0u);
}

TEST_F(NetFixture, ReliableRetransmitBudgetBoundsOutage) {
  // A permanently-down receiver must not retain sender state forever: the
  // attempt budget exhausts and the payloads are accounted dropped.
  config.reliable_delivery = true;
  config.max_retransmit_attempts = 3;
  auto net = MakeNetwork(2);
  net->SetSiteDown(1, true);
  for (int i = 0; i < 5; ++i) net->Send(0, 1, Probe(i));
  scheduler.RunUntilIdle();
  EXPECT_TRUE(received[1].empty());
  EXPECT_EQ(net->stats().dropped, 5u);
  EXPECT_GT(net->stats().retransmits_exhausted, 0u);
  EXPECT_EQ(net->in_flight(), 0u);
  EXPECT_EQ(net->unacked_wire_messages(), 0u);
}

TEST_F(NetFixture, ChannelUnwedgesAfterRetransmitExhaustion) {
  // An abandoned wire message must not wedge the channel: once the budget
  // for seq N exhausts, later messages carry base_seq past the gap and the
  // receiver skips it instead of stashing everything after N forever.
  config.reliable_delivery = true;
  config.max_retransmit_attempts = 2;
  auto net = MakeNetwork(2);
  net->SetSiteDown(1, true);
  net->Send(0, 1, Probe(7));  // every attempt lands on a downed receiver
  scheduler.RunUntilIdle();
  EXPECT_EQ(net->stats().dropped, 1u);
  EXPECT_GT(net->stats().retransmits_exhausted, 0u);
  net->SetSiteDown(1, false);
  for (int i = 0; i < 3; ++i) net->Send(0, 1, Probe(i));
  scheduler.RunUntilIdle();
  ASSERT_EQ(received[1].size(), 3u);
  for (std::uint64_t i = 0; i < 3; ++i) {
    EXPECT_EQ(ProbeValue(received[1][i]), i);
  }
  EXPECT_EQ(net->stats().dropped, 1u);  // only the abandoned probe
  EXPECT_EQ(net->in_flight(), 0u);
  EXPECT_EQ(net->unacked_wire_messages(), 0u);
}

TEST_F(NetFixture, ReliableDeliveryResumesAfterOutage) {
  config.reliable_delivery = true;
  config.latency = 5;
  auto net = MakeNetwork(2);
  net->SetSiteDown(1, true);
  for (int i = 0; i < 5; ++i) net->Send(0, 1, Probe(i));
  scheduler.RunUntil(40);  // a few failed attempts, budget not exhausted
  EXPECT_TRUE(received[1].empty());
  net->SetSiteDown(1, false);
  scheduler.RunUntilIdle();
  ASSERT_EQ(received[1].size(), 5u);
  for (std::uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(ProbeValue(received[1][i]), i);
  }
  EXPECT_EQ(net->stats().dropped, 0u);
}

// --- Incarnations ----------------------------------------------------------

TEST_F(NetFixture, UnregisteredIdsHaveIncarnationZeroAndCannotSend) {
  auto net = MakeNetwork(2);
  // The socket coordinator asks about a Hello's site before it rejects an
  // unknown one.
  EXPECT_EQ(net->incarnation(2), 0u);
  EXPECT_EQ(net->incarnation(kInvalidSite), 0u);
  EXPECT_THROW(net->Send(0, 2, Probe(1)), InvariantViolation);
  EXPECT_THROW(net->Send(2, 0, Probe(1)), InvariantViolation);
  EXPECT_EQ(net->stats().inter_site_sent, 0u);
}

TEST_F(NetFixture, RestartRejectsStaleInFlightTraffic) {
  config.reliable_delivery = true;
  config.latency = 10;
  auto net = MakeNetwork(2);
  net->Send(0, 1, Probe(1));  // in flight when site 1 restarts
  scheduler.RunUntil(5);
  net->NoteSiteRestarted(1);
  scheduler.RunUntilIdle();
  EXPECT_TRUE(received[1].empty());
  EXPECT_GE(net->stats().stale_incarnation_rejected, 1u);
  EXPECT_EQ(net->incarnation(1), 1u);
  EXPECT_EQ(net->in_flight(), 0u);
  // Post-restart traffic flows normally in the fresh sequence space.
  net->Send(0, 1, Probe(2));
  scheduler.RunUntilIdle();
  ASSERT_EQ(received[1].size(), 1u);
  EXPECT_EQ(ProbeValue(received[1][0]), 2u);
}

TEST_F(NetFixture, RestartDeadLettersUnackedChannels) {
  config.reliable_delivery = true;
  auto net = MakeNetwork(2);
  net->SetSiteDown(1, true);  // transmissions fail, entries accumulate
  for (int i = 0; i < 4; ++i) net->Send(0, 1, Probe(i));
  scheduler.RunUntil(10);
  EXPECT_GT(net->unacked_wire_messages(), 0u);
  net->NoteSiteRestarted(1);
  EXPECT_EQ(net->unacked_wire_messages(), 0u);
  EXPECT_EQ(net->stats().dropped, 4u);
  net->SetSiteDown(1, false);
  scheduler.RunUntilIdle();
  EXPECT_TRUE(received[1].empty());  // dead-lettered, not resurrected
  EXPECT_EQ(net->in_flight(), 0u);
}

// --- Failure detection -----------------------------------------------------

TEST_F(NetFixture, FailureDetectorSuspectsAfterTimeoutAndRecovers) {
  config.heartbeat_period = 10;
  config.heartbeat_timeout = 40;
  config.latency = 5;
  auto net = MakeNetwork(3);
  EXPECT_FALSE(net->IsPeerSuspected(0, 1));
  net->SetSiteDown(1, true);
  scheduler.RunUntil(20);
  EXPECT_FALSE(net->IsPeerSuspected(0, 1)) << "suspected before timeout";
  scheduler.RunUntil(45);
  EXPECT_TRUE(net->IsPeerSuspected(0, 1));
  EXPECT_TRUE(net->IsPeerSuspected(2, 1)) << "every observer suspects";
  EXPECT_FALSE(net->IsPeerSuspected(0, 2)) << "healthy peer not suspected";
  net->SetSiteDown(1, false);
  // Suspicion lingers for one heartbeat period + round trip after heal.
  EXPECT_TRUE(net->IsPeerSuspected(0, 1));
  scheduler.RunUntil(scheduler.now() + 10 + 2 * 5 + 1);
  EXPECT_FALSE(net->IsPeerSuspected(0, 1));
  EXPECT_EQ(net->stats().fd_suspicions, 1u);
}

TEST_F(NetFixture, FailureDetectorMissesShortOutages) {
  config.heartbeat_period = 10;
  config.heartbeat_timeout = 40;
  auto net = MakeNetwork(2);
  net->SetSiteDown(1, true);
  scheduler.RunUntil(20);
  net->SetSiteDown(1, false);
  scheduler.RunUntil(100);
  EXPECT_FALSE(net->IsPeerSuspected(0, 1));
  EXPECT_EQ(net->stats().fd_suspicions, 0u);
}

TEST_F(NetFixture, FailureDetectorSeesLinkFaultsPerObserver) {
  config.heartbeat_period = 10;
  config.heartbeat_timeout = 40;
  auto net = MakeNetwork(3);
  net->SetLinkDown(0, 1, true);
  scheduler.RunUntil(50);
  EXPECT_TRUE(net->IsPeerSuspected(0, 1));
  EXPECT_TRUE(net->IsPeerSuspected(1, 0));
  EXPECT_FALSE(net->IsPeerSuspected(2, 1)) << "link fault is local to a pair";
  net->SetLinkDown(0, 1, false);
  scheduler.RunUntilIdle();
  EXPECT_FALSE(net->IsPeerSuspected(0, 1));
}

TEST_F(NetFixture, RecoveryListenersFireAfterDetectedOutageHeals) {
  config.heartbeat_period = 10;
  config.heartbeat_timeout = 40;
  config.latency = 5;
  auto net = MakeNetwork(3);
  std::vector<std::pair<SiteId, SiteId>> notified;  // (observer, peer)
  std::vector<bool> restarted_flags;
  net->SetRecoveryListener(0, [&](SiteId peer, bool restarted) {
    notified.emplace_back(0, peer);
    restarted_flags.push_back(restarted);
  });
  net->SetRecoveryListener(2, [&](SiteId peer, bool restarted) {
    notified.emplace_back(2, peer);
    restarted_flags.push_back(restarted);
  });
  // Undetected short outage: no notification.
  net->SetSiteDown(1, true);
  scheduler.RunUntil(10);
  net->SetSiteDown(1, false);
  scheduler.RunUntilIdle();
  EXPECT_TRUE(notified.empty());
  // Detected outage: every *other* observer hears about the heal.
  net->SetSiteDown(1, true);
  scheduler.RunUntil(scheduler.now() + 50);
  net->SetSiteDown(1, false);
  scheduler.RunUntilIdle();
  ASSERT_EQ(notified.size(), 2u);
  EXPECT_EQ(notified[0], (std::pair<SiteId, SiteId>{0, 1}));
  EXPECT_EQ(notified[1], (std::pair<SiteId, SiteId>{2, 1}));
  EXPECT_FALSE(restarted_flags[0]) << "plain outage, not an incarnation bump";
  EXPECT_FALSE(restarted_flags[1]);
  EXPECT_EQ(net->stats().fd_recoveries, 1u);
  // An outage spanning a restart flags the heal: observers learn the peer
  // is a replacement incarnation.
  notified.clear();
  restarted_flags.clear();
  net->SetSiteDown(1, true);
  scheduler.RunUntil(scheduler.now() + 50);
  net->NoteSiteRestarted(1);
  net->SetSiteDown(1, false);
  scheduler.RunUntilIdle();
  ASSERT_EQ(notified.size(), 2u);
  EXPECT_TRUE(restarted_flags[0]);
  EXPECT_TRUE(restarted_flags[1]);
}

TEST_F(NetFixture, RestartErasesRecoveryListenerUntilReRegistered) {
  config.heartbeat_period = 10;
  config.heartbeat_timeout = 40;
  config.latency = 5;
  auto net = MakeNetwork(3);
  std::vector<SiteId> notified;
  net->SetRecoveryListener(
      0, [&](SiteId peer, bool /*restarted*/) { notified.push_back(peer); });
  EXPECT_EQ(net->recovery_listener_entries(), 1u);
  // A restart dead-letters the old incarnation's connection state; its
  // recovery listener must go with it, not fire on the new incarnation's
  // behalf.
  net->NoteSiteRestarted(0);
  EXPECT_EQ(net->recovery_listener_entries(), 0u);
  net->SetSiteDown(1, true);
  scheduler.RunUntil(scheduler.now() + 50);  // detected outage
  net->SetSiteDown(1, false);
  scheduler.RunUntilIdle();
  EXPECT_TRUE(notified.empty()) << "stale listener fired after restart";
  // The new incarnation subscribes afresh and hears the next heal.
  net->SetRecoveryListener(
      0, [&](SiteId peer, bool /*restarted*/) { notified.push_back(peer); });
  EXPECT_EQ(net->recovery_listener_entries(), 1u);
  net->SetSiteDown(1, true);
  scheduler.RunUntil(scheduler.now() + 50);
  net->SetSiteDown(1, false);
  scheduler.RunUntilIdle();
  ASSERT_EQ(notified.size(), 1u);
  EXPECT_EQ(notified[0], 1u);
}

TEST_F(NetFixture, RetiredBatchBuffersArePooledAndReused) {
  config.batch_window = 10;
  auto net = MakeNetwork(2);
  net->Send(0, 1, Probe(1));
  scheduler.RunUntilIdle();  // batch delivered, its buffer retired to the pool
  EXPECT_EQ(net->batch_pool_size(), 1u);
  EXPECT_EQ(net->batch_pool_hits(), 0u);
  net->Send(0, 1, Probe(2));  // new window takes the pooled allocation
  EXPECT_EQ(net->batch_pool_size(), 0u);
  EXPECT_EQ(net->batch_pool_hits(), 1u);
  scheduler.RunUntilIdle();
  EXPECT_EQ(net->batch_pool_size(), 1u);
  EXPECT_EQ(received[1].size(), 2u);
}

// --- Event-order golden ------------------------------------------------------

/// FNV-1a over 64-bit words, a byte at a time, low byte first.
struct Fnv1a {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  void Add(std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (word >> (8 * byte)) & 0xff;
      hash *= 0x100000001b3ull;
    }
  }
};

// One script through every path of the Network's site and channel state:
// reliable delivery under loss and jitter, a batch window, handlers that
// send while a wire message is being delivered, a link flap and an outage
// the failure detector hears, and restarts while retransmit timers are
// armed. Pins a hash of every delivery (time, from, to, kind, probe value),
// every recovery notification and every counter. Only a change meant to
// alter the event order may re-pin it, and must say so.
TEST_F(NetFixture, ScriptedEventOrderIsPinned) {
  config.reliable_delivery = true;
  config.latency = 4;
  config.latency_jitter = 6;
  config.batch_window = 3;
  config.drop_probability = 0.2;
  config.max_retransmit_attempts = 5;
  config.heartbeat_period = 10;
  config.heartbeat_timeout = 30;
  constexpr SiteId kSites = 4;
  Network net(scheduler, config, Rng(7));
  Fnv1a deliveries;
  std::uint64_t delivered = 0;
  for (SiteId s = 0; s < kSites; ++s) {
    net.RegisterSite(s, [&](const Envelope& envelope) {
      const std::uint64_t value =
          std::holds_alternative<GlobalGcControlMsg>(envelope.payload)
              ? ProbeValue(envelope)
              : 0;
      ++delivered;
      deliveries.Add(static_cast<std::uint64_t>(scheduler.now()));
      deliveries.Add(envelope.from);
      deliveries.Add(envelope.to);
      deliveries.Add(envelope.payload.index());
      deliveries.Add(value);
      // Answer some probes at once, so sends happen inside a delivery.
      if (value != 0 && value % 7 == 0) {
        net.Send(envelope.to, envelope.from, Probe(value + 100'000));
      }
    });
  }
  std::vector<std::tuple<SimTime, SiteId, SiteId, bool>> notices;
  const auto listen = [&](SiteId observer) {
    net.SetRecoveryListener(observer,
                            [&, observer](SiteId peer, bool restarted) {
                              notices.emplace_back(scheduler.now(), observer,
                                                   peer, restarted);
                            });
  };
  for (SiteId s = 0; s < kSites; ++s) listen(s);

  for (SimTime t = 0; t < 300; t += 3) {
    scheduler.At(t, [&net, t] {
      const auto step = static_cast<SiteId>(t / 3);
      const SiteId from = step % kSites;
      const SiteId to = (from + 1 + step % (kSites - 1)) % kSites;
      if (step % 5 == 4) {
        net.Send(from, to, PinReleaseMsg{ObjectId{to, step}});
      } else {
        net.Send(from, to, Probe(static_cast<std::uint64_t>(t) + 1));
      }
    });
  }
  scheduler.At(40, [&] { net.SetLinkDown(2, 1, true); });
  scheduler.At(60, [&] { net.SetSiteDown(3, true); });
  scheduler.At(100, [&] {
    net.NoteSiteRestarted(3);
    listen(3);
  });
  scheduler.At(120, [&] { net.SetLinkDown(2, 1, false); });
  scheduler.At(150, [&] { net.SetSiteDown(3, false); });
  scheduler.At(200, [&] {
    EXPECT_GT(net.unacked_wire_messages(), 0u);
    net.NoteSiteRestarted(0);
    listen(0);
  });
  scheduler.RunUntilIdle();

  EXPECT_EQ(delivered, 86u);
  EXPECT_EQ(deliveries.hash, 15288353466833724102ull);
  // A link heal notifies in the caller's (a, b) order; a site heal notifies
  // every other observer in site order.
  using Notice = std::tuple<SimTime, SiteId, SiteId, bool>;
  EXPECT_EQ(notices, (std::vector<Notice>{{150, 2, 1, false},
                                          {150, 1, 2, false},
                                          {180, 0, 3, true},
                                          {180, 1, 3, true},
                                          {180, 2, 3, true}}));
  std::ostringstream counters;
  ForEachCounter(net.stats(), [&](const std::string& name, std::uint64_t v) {
    counters << name << '=' << v << ' ';
  });
  counters << "GlobalGcControl=" << net.stats().count_of<GlobalGcControlMsg>()
           << " PinRelease=" << net.stats().count_of<PinReleaseMsg>();
  EXPECT_EQ(counters.str(),
            "inter_site_sent=106 inter_site_delivered=86 dropped=24 "
            "self_deliveries=0 logical_bytes=3186 wire_messages=299 "
            "wire_bytes=6120 retransmits=77 retransmits_exhausted=0 "
            "transmissions_lost=87 dup_suppressed=27 acks_sent=117 "
            "stale_incarnation_rejected=2 fd_suspicions=2 fd_recoveries=2 "
            "GlobalGcControl=86 PinRelease=20");
  EXPECT_EQ(scheduler.events_executed(), 513u);
  EXPECT_EQ(scheduler.now(), 658);
  EXPECT_EQ(net.in_flight(), 0u);
  EXPECT_EQ(net.unacked_wire_messages(), 0u);
}

TEST(PayloadTest, KindNamesCoverAllAlternatives) {
  for (std::size_t i = 0; i < kPayloadKinds; ++i) {
    EXPECT_NE(PayloadKindName(i), nullptr);
    EXPECT_GT(std::string(PayloadKindName(i)).size(), 0u);
  }
}

TEST(PayloadTest, WireSizeScalesWithContent) {
  UpdateMsg small{{UpdateEntry{ObjectId{1, 1}, false, 3}}};
  UpdateMsg big;
  for (int i = 0; i < 50; ++i) {
    big.entries.push_back(UpdateEntry{ObjectId{1, (std::uint64_t)i}, false, 3});
  }
  // A u32 count, then 17 bytes per entry: a 12-byte id, the removed flag
  // and a u32 distance.
  EXPECT_EQ(wire::EncodedSize(small), 4u + 17u);
  EXPECT_EQ(wire::EncodedSize(big), 4u + 50u * 17u);
}

}  // namespace
}  // namespace dgc
