// Process-mode tests: real site processes over Unix-domain sockets.
//
// The suite covers the three pillars of the socket transport:
//   * determinism — a seeded scripted churn produces the SAME object ids,
//     survivors, and reclaim totals under the in-process simulator and
//     under real processes (10-seed differential);
//   * crash recovery — kill -9 mid-trace, the supervisor restarts the
//     process, the replacement restores its snapshot, dials back in at
//     incarnation + 1, and every severed garbage cycle is still collected;
//   * graceful degradation — a SIGSTOP'd site only times out its own
//     steps (the coordinator keeps the rest of the world moving), and a
//     severed socket reconnects at the same incarnation with no fencing.
//
// Everything here forks real processes, so this binary carries the
// `socket` ctest label: the TSan leg of check_sanitize.sh excludes it
// (TSan's runtime does not survive fork-without-exec children).
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/config.h"
#include "common/ids.h"
#include "core/system.h"
#include "net/socket_transport.h"
#include "net/socket_world.h"
#include "net/supervisor.h"
#include "net/wire.h"
#include "sim/fault_plan.h"
#include "workload/scripted.h"

namespace dgc {
namespace {

constexpr std::size_t kSites = 4;

CollectorConfig TestCollector() {
  CollectorConfig config;
  return config;
}

NetworkConfig FastSocketNet() {
  NetworkConfig net;
  // Keep real-time waits short so chaos tests run in seconds: a paused
  // site is declared unresponsive after 1s, restarts retry quickly.
  net.socket.step_timeout_ms = 1000;
  net.socket.settle_grace_ms = 5000;
  net.socket.restart_backoff_initial_ms = 20;
  net.socket.restart_backoff_max_ms = 200;
  return net;
}

SocketWorldOptions TestOptions(std::uint64_t seed) {
  SocketWorldOptions options;
  options.site_count = kSites;
  options.collector = TestCollector();
  options.network = FastSocketNet();
  options.seed = seed;
  return options;
}

ScriptedChurnSpec SmallSpec() {
  ScriptedChurnSpec spec;
  spec.rounds = 3;
  spec.rings_per_round = 2;
  spec.ring_span = 3;
  spec.locals_per_round = 2;
  spec.cut_probability = 0.5;
  spec.drain_rounds = 8;
  return spec;
}

/// Builds one cross-site ring by hand (span sites starting at `start`),
/// tethered to a persistent root on `start`. Returns the ring objects;
/// `tether` receives the root.
std::vector<ObjectId> BuildRing(SocketWorld& world, SiteId start,
                                std::size_t span, ObjectId& tether) {
  std::vector<ObjectId> ring;
  for (std::size_t k = 0; k < span; ++k) {
    ring.push_back(world.NewObject((start + k) % kSites, 2));
  }
  for (std::size_t k = 0; k < span; ++k) {
    world.Wire(ring[k], 0, ring[(k + 1) % span]);
  }
  tether = world.NewObject(start, 2);
  world.SetPersistentRoot(tether);
  world.Wire(tether, 0, ring.front());
  return ring;
}

TEST(SocketWorld, LifecycleAndBasicCollection) {
  SocketWorld world(TestOptions(/*seed=*/1));
  const SocketCounters& counters = world.transport().socket_counters();
  EXPECT_EQ(counters.handshakes_accepted, kSites);
  for (SiteId s = 0; s < kSites; ++s) {
    EXPECT_TRUE(world.transport().connected(s));
    EXPECT_EQ(world.incarnation(s), 0u);
  }

  ObjectId tether;
  const std::vector<ObjectId> ring = BuildRing(world, 0, 3, tether);
  world.RunRounds(2);
  for (ObjectId obj : ring) {
    EXPECT_TRUE(world.ObjectExists(obj)) << "tethered ring member collected";
  }

  world.Unwire(tether, 0);
  world.RunRounds(8);
  for (ObjectId obj : ring) {
    EXPECT_FALSE(world.ObjectExists(obj)) << "severed cycle survived";
  }
  EXPECT_TRUE(world.ObjectExists(tether));  // still a persistent root
  EXPECT_GE(world.TotalObjectsReclaimed(), ring.size());
}

// The acceptance differential: identical op streams through the simulator
// and through real processes must agree on every object id minted, every
// survivor, and the reclaim totals.
TEST(SocketWorld, SimDifferentialTenSeeds) {
  const ScriptedChurnSpec spec = SmallSpec();
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));

    System system(kSites, TestCollector(), NetworkConfig{}, seed);
    SystemGodWorld sim_world(system);
    const ScriptedChurnResult sim = RunScriptedChurn(sim_world, seed, spec);

    SocketWorld socket(TestOptions(seed));
    SocketGodWorld proc_world(socket);
    const ScriptedChurnResult proc = RunScriptedChurn(proc_world, seed, spec);

    // Object identity: both worlds must mint the same ids for the same ops.
    ASSERT_EQ(sim.rings.size(), proc.rings.size());
    ASSERT_EQ(sim.locals, proc.locals);
    ASSERT_EQ(sim.cuts, proc.cuts);
    for (std::size_t i = 0; i < sim.rings.size(); ++i) {
      ASSERT_EQ(sim.rings[i].objects, proc.rings[i].objects);
      ASSERT_EQ(sim.rings[i].tether, proc.rings[i].tether);
      ASSERT_EQ(sim.rings[i].cut, proc.rings[i].cut);
    }

    // Verdicts: every object's fate matches, object by object.
    for (const ScriptedRing& ring : sim.rings) {
      for (ObjectId obj : ring.objects) {
        EXPECT_EQ(system.ObjectExists(obj), socket.ObjectExists(obj))
            << "ring object " << obj.site << ":" << obj.index;
      }
      EXPECT_EQ(system.ObjectExists(ring.tether),
                socket.ObjectExists(ring.tether));
    }
    for (ObjectId obj : sim.locals) {
      EXPECT_EQ(system.ObjectExists(obj), socket.ObjectExists(obj));
    }

    // Totals: same live census, same reclaim count.
    EXPECT_EQ(system.TotalObjects(), socket.TotalObjects());
    EXPECT_EQ(system.TotalObjectsReclaimed(), socket.TotalObjectsReclaimed());

    // All cut rings must actually be garbage by now in both worlds.
    for (const ScriptedRing& ring : sim.rings) {
      ASSERT_TRUE(ring.cut);
      for (ObjectId obj : ring.objects) {
        EXPECT_FALSE(system.ObjectExists(obj));
        EXPECT_FALSE(socket.ObjectExists(obj));
      }
    }
  }
}

// Chaos against the pipelined wave itself: one site SIGSTOPped (its slot
// expires at the shared deadline while the rest of the wave completes) and
// another kill -9'd with a StepRequest in flight (EOF mid-wave →
// disconnect → supervised restart at incarnation + 1). The world must keep
// stepping, absorb the late reply on resume, and still collect every
// severed cycle.
TEST(SocketWorld, PipelinedWaveSurvivesStopAndKillChaos) {
  SocketWorldOptions options = TestOptions(/*seed=*/19);
  options.network.socket.step_timeout_ms = 200;
  // Settles wait this long in all for the paused site's owed reply; keep
  // it short (still >> the restart backoff).
  options.network.socket.settle_grace_ms = 400;
  SocketWorld world(options);

  ObjectId tether0;
  ObjectId tether1;
  const std::vector<ObjectId> ring0 = BuildRing(world, 0, 3, tether0);
  const std::vector<ObjectId> ring1 = BuildRing(world, 1, 4, tether1);
  world.RunRounds(2);
  world.Unwire(tether0, 0);
  world.Unwire(tether1, 0);

  world.PauseSite(3);  // every wave now carries a dark site
  FaultPlan plan;
  plan.KillProcess(world.control_scheduler().now() + 1, /*site=*/1);
  world.ArmFaultPlan(plan);

  world.RunRounds(4);  // waves with one paused and one dying site in flight
  const SocketCounters& counters = world.transport().socket_counters();
  EXPECT_GE(counters.step_timeouts, 1u) << "pause never hit a wave deadline";

  world.ResumeSite(3);
  world.SettleNetwork();  // absorbs the owed late reply + supervised restart
  EXPECT_TRUE(world.transport().responsive(3));
  EXPECT_GE(world.supervisor().counters().restarts, 1u);
  EXPECT_GE(world.incarnation(1), 1u);

  world.RunRounds(10);
  for (ObjectId obj : ring0) {
    EXPECT_FALSE(world.ObjectExists(obj)) << "severed cycle leaked";
  }
  for (ObjectId obj : ring1) {
    EXPECT_FALSE(world.ObjectExists(obj)) << "severed cycle leaked";
  }
  EXPECT_TRUE(world.ObjectExists(tether0));
  EXPECT_TRUE(world.ObjectExists(tether1));
}

// --- Supervisor backoff reset ----------------------------------------------

// A site whose every incarnation lives past the healthy-uptime window must
// never march toward give-up: each death is a fresh incident, restarted
// with the initial backoff and a fresh budget.
TEST(SupervisorTest, HealthyUptimeResetsTheRestartBudget) {
  Supervisor::Options opts;
  opts.backoff_initial_ms = 10;
  opts.backoff_max_ms = 500;
  opts.max_restarts = 2;
  opts.healthy_uptime_reset_ms = 50;
  Supervisor sup(opts);
  Supervisor::SiteSpec spec;
  spec.run = [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(80));
    return 1;  // healthy life (80ms >= 50ms window), then an unexpected exit
  };
  const SiteId site = sup.AddSite(std::move(spec));
  sup.Start(site);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < deadline &&
         sup.status(site).restarts < opts.max_restarts + 2) {
    sup.Poll();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GE(sup.status(site).restarts, opts.max_restarts + 2)
      << "healthy uptime did not reset the give-up budget";
  EXPECT_FALSE(sup.status(site).gave_up);
  sup.Terminate(site);
}

// A genuine crash loop — every life shorter than the window — still
// exhausts the budget exactly as before the reset knob existed.
TEST(SupervisorTest, CrashLoopStillExhaustsBudgetDespiteHealthyWindow) {
  Supervisor::Options opts;
  opts.backoff_initial_ms = 10;
  opts.backoff_max_ms = 100;
  opts.max_restarts = 2;
  opts.healthy_uptime_reset_ms = 50;
  Supervisor sup(opts);
  Supervisor::SiteSpec spec;
  spec.run = [] { return 1; };  // dies instantly: never healthy
  const SiteId site = sup.AddSite(std::move(spec));
  sup.Start(site);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < deadline &&
         !sup.status(site).gave_up) {
    sup.Poll();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_TRUE(sup.status(site).gave_up);
  EXPECT_EQ(sup.status(site).restarts, opts.max_restarts);
  EXPECT_EQ(sup.counters().gave_up, 1u);
  EXPECT_FALSE(sup.status(site).restart_pending);
}

// kill -9 a site that hosts members of severed cycles, mid-trace. The
// supervisor must restart it, the replacement must come back at
// incarnation + 1 (snapshot + handshake fencing), and every severed cycle
// must still be collected in bounded rounds.
TEST(SocketWorld, KillNineMidTraceRecoversAndCollects) {
  SocketWorld world(TestOptions(/*seed=*/7));

  ObjectId tether0;
  ObjectId tether1;
  const std::vector<ObjectId> ring0 = BuildRing(world, 0, 3, tether0);
  const std::vector<ObjectId> ring1 = BuildRing(world, 1, 4, tether1);
  world.RunRounds(2);  // let registrations and distances settle

  world.Unwire(tether0, 0);
  world.Unwire(tether1, 0);

  // Kill site 1 (a member of both rings) shortly after traces start.
  FaultPlan plan;
  plan.KillProcess(world.control_scheduler().now() + 1, /*site=*/1);
  world.ArmFaultPlan(plan);

  world.RunRounds(10);
  world.SettleNetwork();

  const Supervisor::Counters& sup = world.supervisor().counters();
  EXPECT_GE(sup.kills, 1u);
  EXPECT_GE(sup.restarts, 1u);
  EXPECT_GE(world.incarnation(1), 1u) << "restart handshake did not fence";
  EXPECT_GE(world.transport().socket_counters().restarts_accepted, 1u);
  EXPECT_TRUE(world.transport().connected(1));

  for (ObjectId obj : ring0) {
    EXPECT_FALSE(world.ObjectExists(obj)) << "severed cycle leaked";
  }
  for (ObjectId obj : ring1) {
    EXPECT_FALSE(world.ObjectExists(obj)) << "severed cycle leaked";
  }
  EXPECT_TRUE(world.ObjectExists(tether0));
  EXPECT_TRUE(world.ObjectExists(tether1));
}

// SIGSTOP freezes one site; the coordinator must degrade gracefully (step
// timeouts, not a stall), absorb the late reply after SIGCONT, and finish
// collecting once the site is back. The pause is held across REAL time
// (sim-time pauses elapse in microseconds and never straddle a step), so
// this test shortens the step timeout and stops the process directly.
TEST(SocketWorld, PauseResumeDegradesGracefully) {
  SocketWorldOptions options = TestOptions(/*seed=*/11);
  options.network.socket.step_timeout_ms = 200;
  SocketWorld world(options);

  ObjectId tether;
  const std::vector<ObjectId> ring = BuildRing(world, 0, 3, tether);
  world.RunRounds(2);
  world.Unwire(tether, 0);

  world.PauseSite(2);
  // The paused site times its step out; the round must still complete for
  // everyone else instead of stalling the world.
  world.RunRounds(2);
  const SocketCounters& counters = world.transport().socket_counters();
  EXPECT_GE(counters.step_timeouts, 1u) << "pause was never observed";
  EXPECT_FALSE(world.transport().responsive(2));
  EXPECT_TRUE(world.transport().connected(2)) << "pause is not a crash";

  world.ResumeSite(2);
  world.SettleNetwork();  // absorbs the owed late reply
  EXPECT_TRUE(world.transport().responsive(2));
  EXPECT_GE(counters.late_replies, 1u) << "owed reply was not absorbed";
  EXPECT_EQ(world.incarnation(2), 0u) << "pause must not look like a crash";
  EXPECT_GE(world.supervisor().counters().pauses, 1u);
  EXPECT_GE(world.supervisor().counters().resumes, 1u);

  world.RunRounds(8);
  for (ObjectId obj : ring) {
    EXPECT_FALSE(world.ObjectExists(obj)) << "severed cycle leaked";
  }
}

// A census query and a round's start-trace build op that time out against
// paused sites leave their replies owed; one settle after the resumes must
// absorb both kinds, and the world must go on collecting.
TEST(SocketWorld, LateQueryAndBuildOpRepliesAreAbsorbed) {
  SocketWorldOptions options = TestOptions(/*seed=*/23);
  options.network.socket.step_timeout_ms = 200;
  SocketWorld world(options);

  ObjectId tether;
  const std::vector<ObjectId> ring = BuildRing(world, 0, 3, tether);
  world.RunRounds(2);
  world.Unwire(tether, 0);

  const SocketCounters& counters = world.transport().socket_counters();
  const std::uint64_t timeouts = counters.step_timeouts;
  const std::uint64_t late = counters.late_replies;
  world.PauseSite(1);
  world.PauseSite(2);
  wire::QueryReplyFrame census;
  EXPECT_FALSE(world.QuerySite(1, census));
  wire::BuildOpFrame start;
  start.op = wire::BuildOpKind::kStartTrace;
  wire::BuildReplyFrame built;
  EXPECT_FALSE(world.transport().RunBuildOp(2, start, built));
  EXPECT_EQ(counters.step_timeouts, timeouts + 2);
  EXPECT_FALSE(world.transport().responsive(1));
  EXPECT_FALSE(world.transport().responsive(2));

  world.ResumeSite(1);
  world.ResumeSite(2);
  world.SettleNetwork();
  EXPECT_EQ(counters.late_replies, late + 2);
  EXPECT_TRUE(world.transport().responsive(1));
  EXPECT_TRUE(world.transport().responsive(2));
  EXPECT_EQ(counters.disconnects, 0u);

  world.RunRounds(8);
  for (ObjectId obj : ring) {
    EXPECT_FALSE(world.ObjectExists(obj)) << "severed cycle leaked";
  }
  EXPECT_TRUE(world.ObjectExists(tether));
}

// Severing the socket under a healthy process: the site redials and is
// accepted at the SAME incarnation — no fencing, no restart.
TEST(SocketWorld, SeveredSocketReconnectsSameIncarnation) {
  SocketWorld world(TestOptions(/*seed=*/13));

  ObjectId tether;
  const std::vector<ObjectId> ring = BuildRing(world, 0, 3, tether);
  world.RunRounds(2);
  world.Unwire(tether, 0);

  FaultPlan plan;
  plan.SeverSocket(world.control_scheduler().now() + 1, /*site=*/0);
  world.ArmFaultPlan(plan);

  world.RunRounds(8);
  world.SettleNetwork();

  const SocketCounters& counters = world.transport().socket_counters();
  EXPECT_GE(counters.severed, 1u);
  EXPECT_GE(counters.reconnects, 1u) << "surviving process did not redial";
  EXPECT_EQ(world.incarnation(0), 0u)
      << "same-process reconnect must not bump the incarnation";
  EXPECT_EQ(world.supervisor().counters().restarts, 0u);
  EXPECT_TRUE(world.transport().connected(0));

  for (ObjectId obj : ring) {
    EXPECT_FALSE(world.ObjectExists(obj)) << "severed cycle leaked";
  }
}

// Direct kill (no fault plan) while idle: the restart path alone — snapshot
// restore, incarnation bump, resync step — must leave the census intact.
TEST(SocketWorld, RestartPreservesCensusViaSnapshot) {
  SocketWorld world(TestOptions(/*seed=*/17));

  ObjectId tether;
  const std::vector<ObjectId> ring = BuildRing(world, 2, 3, tether);
  world.RunRounds(2);
  const std::uint64_t live_before = world.TotalObjects();

  world.KillSite(2);
  world.SettleNetwork();  // waits out the supervised restart + handshake

  EXPECT_GE(world.incarnation(2), 1u);
  EXPECT_TRUE(world.transport().connected(2));
  EXPECT_EQ(world.TotalObjects(), live_before)
      << "snapshot restore lost or duplicated objects";
  for (ObjectId obj : ring) {
    EXPECT_TRUE(world.ObjectExists(obj));
  }

  // And the restored site still participates in collection.
  world.Unwire(tether, 0);
  world.RunRounds(8);
  for (ObjectId obj : ring) {
    EXPECT_FALSE(world.ObjectExists(obj)) << "severed cycle leaked";
  }
}

// ---------------------------------------------------------------------------
// A hand-driven fake site: a thread that speaks the frames itself, so a test
// can put replies on the wire that no real site process would send.

int DialCoordinator(const std::string& path) {
  const int fd = socket(AF_UNIX, SOCK_STREAM, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (fd < 0 ||
      connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    if (fd >= 0) close(fd);
    return -1;
  }
  return fd;
}

/// Handshakes as `site`, then answers every StepRequest with an empty reply
/// whose next event is 10 ticks later — except the first, which carries
/// `first_staged` — until the coordinator shuts it down or hangs up.
void RunFakeSite(const std::string& path, SiteId site,
                 std::vector<Envelope> first_staged) {
  const int fd = DialCoordinator(path);
  if (fd < 0) return;
  wire::HelloFrame hello;
  hello.site = site;
  std::vector<std::uint8_t> carry;
  wire::FrameType type = wire::FrameType::kHello;
  std::vector<std::uint8_t> body;
  if (wire::WriteFrame(fd, wire::FrameType::kHello, wire::EncodeBody(hello)) !=
          wire::IoStatus::kOk ||
      wire::ReadFrameBuffered(fd, 5000, carry, type, body) !=
          wire::IoStatus::kOk) {
    close(fd);
    return;
  }
  while (wire::ReadFrameBuffered(fd, 5000, carry, type, body) ==
         wire::IoStatus::kOk) {
    if (type == wire::FrameType::kShutdown) {
      (void)wire::WriteFrame(fd, wire::FrameType::kShutdownAck, {});
      break;
    }
    wire::StepRequestFrame request;
    if (type != wire::FrameType::kStepRequest ||
        !wire::DecodeBody(body, request)) {
      break;
    }
    wire::StepReplyFrame reply;
    reply.seq = request.seq;
    reply.next_event_time = request.target_time + 10;
    reply.staged = std::exchange(first_staged, {});
    if (wire::WriteFrame(fd, wire::FrameType::kStepReply,
                         wire::EncodeBody(reply)) != wire::IoStatus::kOk) {
      break;
    }
  }
  close(fd);
}

/// Two fake sites; site 1's first reply stages `bad`. The coordinator must
/// disconnect site 1 before `bad` reaches the Network, and keep stepping
/// site 0.
void ExpectBadStagedSendDisconnects(const Envelope& bad) {
  char tmpl[] = "/tmp/dgc_fake_site_XXXXXX";
  const char* dir = mkdtemp(tmpl);
  ASSERT_NE(dir, nullptr);
  const std::string path = std::string(dir) + "/coordinator.sock";
  {
    Scheduler control;
    SocketTransport transport(/*site_count=*/2, control, NetworkConfig{},
                              Rng(1), path);
    std::jthread good(RunFakeSite, path, 0, std::vector<Envelope>{});
    std::jthread evil(RunFakeSite, path, 1, std::vector<Envelope>{bad});
    ASSERT_TRUE(transport.WaitForAllConnected(5000));
    EXPECT_NO_THROW(transport.RunUntilTime(100));
    EXPECT_FALSE(transport.connected(1));
    EXPECT_TRUE(transport.connected(0));
    EXPECT_EQ(transport.socket_counters().disconnects, 1u);
    EXPECT_EQ(transport.network().stats().inter_site_sent, 0u)
        << "the bad reply's send entered the Network";
    // Site 0 answered the resync step and then one step every 10 ticks.
    EXPECT_GE(transport.socket_counters().step_requests, 11u);
    transport.ShutdownAll();
  }
  rmdir(dir);
}

TEST(SocketTransportTest, StagedSendToAnUnknownSiteDisconnectsTheSender) {
  ExpectBadStagedSendDisconnects(Envelope{1, 2, PinReleaseMsg{ObjectId{0, 1}}});
}

TEST(SocketTransportTest, StagedSendAsAnotherSiteDisconnectsTheSender) {
  ExpectBadStagedSendDisconnects(Envelope{0, 1, PinReleaseMsg{ObjectId{1, 1}}});
}

TEST(SocketTransportTest,
     StagedInsertForAnotherSitesObjectDisconnectsTheSender) {
  // Site 0's insert handler checks that it owns the inserted object; a
  // misaddressed insert must stop at the coordinator instead.
  ExpectBadStagedSendDisconnects(
      Envelope{1, 0, InsertMsg{ObjectId{1, 1}, true, 1}});
}

// No site process handles a Section 7 baseline's kinds: Site::HandleMessage
// would throw on one and end the destination's process.
TEST(SocketTransportTest, StagedBaselinePatchDisconnectsTheSender) {
  ExpectBadStagedSendDisconnects(
      Envelope{1, 0, PatchMsg{ObjectId{0, 1}, ObjectId{0, 2}}});
}

TEST(SocketTransportTest, StagedBaselineCondemnDisconnectsTheSender) {
  ExpectBadStagedSendDisconnects(
      Envelope{1, 0, CondemnMsg{1, {ObjectId{0, 1}}}});
}

}  // namespace
}  // namespace dgc
