// Coordinator-process driver for socket-transport runs: the process-mode
// analogue of System.
//
// System cannot host socket sites (its Sites are in-process objects; socket
// sites live in their own OS processes), so SocketWorld owns the
// coordinator half instead: the control Scheduler, the SocketTransport (one
// Network + the per-connection engine), the Supervisor that
// spawns/restarts the site processes, and a god-mode build/query
// surface that mirrors System's — NewObject, SetPersistentRoot, Wire,
// Unwire, RunRound, census queries — implemented as BuildOp/Query frames.
// Timeout derivation is shared with System (DeriveReliabilityTimeouts), so
// a seeded run under the socket transport makes exactly the protocol-level
// decisions the simulator makes.
//
// Chaos: ArmFaultPlan wires the process-level fault kinds to real effects
// (KillProcess -> SIGKILL + supervised restart, SeverSocket ->
// coordinator-side close) alongside the familiar network-level faults, all
// scheduled on the control scheduler in simulated time. PauseSite and
// ResumeSite send SIGSTOP/SIGCONT directly.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/ids.h"
#include "common/rng.h"
#include "net/socket_transport.h"
#include "net/supervisor.h"
#include "sim/fault_plan.h"
#include "sim/scheduler.h"

namespace dgc {

struct SocketWorldOptions {
  std::size_t site_count = 4;
  CollectorConfig collector;
  /// socket.* tunes timeouts and backoff.
  NetworkConfig network;
  std::uint64_t seed = 1;
  /// Exec mode: argv template for site processes; SocketWorld appends
  /// `--role site --site N --socket PATH --snapshot PATH`. Empty spawns
  /// sites by fork (callback mode) — the test-friendly default.
  std::vector<std::string> site_exec_argv;
  /// Working directory for the coordinator socket and site snapshots.
  /// Empty creates (and owns) a fresh temp directory.
  std::string state_dir;
  int connect_timeout_ms = 15'000;
};

class SocketWorld {
 public:
  explicit SocketWorld(SocketWorldOptions options);
  ~SocketWorld();

  SocketWorld(const SocketWorld&) = delete;
  SocketWorld& operator=(const SocketWorld&) = delete;

  [[nodiscard]] std::size_t site_count() const {
    return options_.site_count;
  }
  [[nodiscard]] const std::string& state_dir() const { return state_dir_; }
  [[nodiscard]] SocketTransport& transport() { return *transport_; }
  [[nodiscard]] Supervisor& supervisor() { return *supervisor_; }
  [[nodiscard]] Scheduler& control_scheduler() { return control_; }

  // --- God-mode build surface (mirrors System) --------------------------

  ObjectId NewObject(SiteId site, std::size_t slots);
  void SetPersistentRoot(ObjectId obj);
  void Wire(ObjectId source, std::size_t slot, ObjectId target);
  void Unwire(ObjectId source, std::size_t slot);

  /// One collection round, System::RunRound's schedule: per site in order,
  /// start a local trace (unless one is in flight) and settle.
  void RunRound();
  void RunRounds(std::size_t n);
  void SettleNetwork();

  // --- Census -----------------------------------------------------------

  /// False when the site is currently unanswerable (down/paused/mid-step
  /// after the settle grace) — chaos callers decide how patient to be.
  [[nodiscard]] bool QuerySite(SiteId site, wire::QueryReplyFrame& out);
  /// Sorted ids of every live object on every answerable site.
  [[nodiscard]] std::vector<ObjectId> SurvivingObjects();
  [[nodiscard]] std::uint64_t TotalObjects();
  [[nodiscard]] std::uint64_t TotalObjectsReclaimed();
  [[nodiscard]] bool ObjectExists(ObjectId id);
  [[nodiscard]] std::uint32_t incarnation(SiteId site) const {
    return transport_->incarnation(site);
  }

  // --- Chaos ------------------------------------------------------------

  /// Schedules the plan on the control scheduler. Network-level faults use
  /// the same Network switches as System; process-level faults deliver real
  /// signals / close real sockets.
  void ArmFaultPlan(const FaultPlan& plan);

  void KillSite(SiteId site) { supervisor_->Kill(site); }
  void PauseSite(SiteId site) { supervisor_->Pause(site); }
  void ResumeSite(SiteId site) {
    supervisor_->Resume(site);
    transport_->RenewSettleGrace(site);
  }

 private:
  [[nodiscard]] std::string SnapshotPathFor(SiteId site) const;

  SocketWorldOptions options_;
  std::string state_dir_;
  bool owns_state_dir_ = false;
  Scheduler control_;
  std::unique_ptr<SocketTransport> transport_;
  std::unique_ptr<Supervisor> supervisor_;
};

}  // namespace dgc
