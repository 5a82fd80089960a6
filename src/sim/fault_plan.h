// Scriptable chaos injection: a FaultPlan is a deterministic schedule of
// faults — site outages (optionally ending in a crash-restart), link flaps,
// drop bursts and latency spikes — that the chaos harness arms against a
// running system. The plan itself only knows *when* faults begin and end;
// the hooks supplied at Schedule time decide *how* each fault is applied.
// Network::PlanHooks wires the network faults to the Network's fault
// switches, with reference counting so overlapping bursts/spikes restore
// cleanly; System::ArmFaultPlan adds Site::CrashRestart, and
// SocketWorld::ArmFaultPlan adds the process faults (signals and socket
// closes).
//
// Plans are plain data: build one by hand for a scripted scenario, or with
// FaultPlan::Random for seeded chaos soaks. Scheduling is pure — the same
// plan armed against the same world and seed replays bit for bit.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/config.h"
#include "common/ids.h"
#include "common/rng.h"
#include "sim/scheduler.h"

namespace dgc {

/// How a scheduled fault is applied/undone; every hook may be empty (the
/// corresponding fault kind is then skipped).
struct FaultHooks {
  std::function<void(SiteId, bool)> set_site_down;
  std::function<void(SiteId, SiteId, bool)> set_link_down;
  /// Invoked at the end of an outage scheduled with crash_restart = true,
  /// after connectivity is restored (a restart's re-registrations would
  /// otherwise be lost to the still-severed network).
  std::function<void(SiteId)> crash_restart;
  std::function<void(double)> begin_drop_burst;
  std::function<void()> end_drop_burst;
  std::function<void(SimTime)> begin_latency_spike;
  std::function<void()> end_latency_spike;
  // Process-level faults (socket transport only; System leaves these empty
  // and the events are skipped). kill_process sends SIGKILL — the supervisor
  // then restarts the site with backoff and it rejoins via the incarnation
  // handshake. sever_socket closes the coordinator's end of the site's
  // connection mid-run; the site redials and reconnects at the same
  // incarnation.
  std::function<void(SiteId)> kill_process;
  std::function<void(SiteId)> sever_socket;
};

class FaultPlan {
 public:
  enum class Kind : std::uint8_t {
    kSiteOutage,
    kLinkFlap,
    kDropBurst,
    kLatencySpike,
    kKillProcess,    // SIGKILL the site's process at `at`
    kSeverSocket,    // close the site's connection at `at`
  };

  struct Event {
    Kind kind = Kind::kSiteOutage;
    SimTime at = 0;
    SimTime duration = 0;
    SiteId site = kInvalidSite;  // outage / crash target
    SiteId peer = kInvalidSite;  // second endpoint of a link flap
    double drop_probability = 0.0;
    SimTime extra_latency = 0;
    bool crash_restart = false;  // outage ends with a crash-restart
  };

  /// Site `site` is unreachable during [at, at + duration); when
  /// crash_restart is set, it additionally loses its volatile state at heal
  /// time (the outage was a crash, not a partition).
  FaultPlan& SiteOutage(SimTime at, SiteId site, SimTime duration,
                        bool crash_restart = false);
  /// The a--b link is severed during [at, at + duration).
  FaultPlan& LinkFlap(SimTime at, SiteId a, SiteId b, SimTime duration);
  /// Every transmission drops with probability p during [at, at + duration).
  FaultPlan& DropBurst(SimTime at, SimTime duration, double drop_probability);
  /// Every transmission takes extra_latency longer during [at, at+duration).
  FaultPlan& LatencySpike(SimTime at, SimTime duration, SimTime extra_latency);

  // Process-level chaos (effective only under hooks that arm them — the
  // socket transport's; in-process transports skip these events).

  /// kill -9 the site's process at `at`. Recovery is the supervisor's job.
  FaultPlan& KillProcess(SimTime at, SiteId site);
  /// Sever the site's socket at `at` (the process survives and redials).
  FaultPlan& SeverSocket(SimTime at, SiteId site);

  /// Arms every event against the scheduler. The hooks are copied into the
  /// scheduled closures; the plan itself need not outlive the call.
  void Schedule(Scheduler& scheduler, FaultHooks hooks) const;

  [[nodiscard]] const std::vector<Event>& events() const { return events_; }
  [[nodiscard]] bool empty() const { return events_.empty(); }

  /// Knobs for Random. Fault windows are drawn uniformly inside
  /// [0, horizon - max_duration]; counts of each kind are exact.
  struct RandomSpec {
    std::size_t sites = 4;
    SimTime horizon = 4000;
    std::size_t site_outages = 2;
    std::size_t link_flaps = 2;
    std::size_t drop_bursts = 2;
    std::size_t latency_spikes = 1;
    SimTime min_duration = 100;
    SimTime max_duration = 600;
    double burst_drop_probability = 0.6;
    SimTime spike_extra_latency = 40;
    /// Site outages become crash-restarts with probability 1/2.
    bool allow_crash_restarts = true;
  };
  static FaultPlan Random(Rng& rng, const RandomSpec& spec);

 private:
  std::vector<Event> events_;
};

}  // namespace dgc
