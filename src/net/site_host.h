// The site-process side of the socket transport.
//
// Under `--transport socket` every site is its own OS process. The process
// hosts one ordinary Site over a SiteAgentTransport — a Transport whose
// "network" is the coordinator at the far end of a Unix-domain socket: sends
// are staged locally and shipped back in the next StepReply/BuildReply, and
// the failure-detector queries answer from suspicion state the coordinator
// ships inside each StepRequest (the site process has no Network of its own).
//
// Crash durability: after every step the host serializes the site's durable
// state — heap image, the ref tables themselves (each entry's Fields list
// names its durable fields), back-info outsets, incarnation — to a snapshot
// file (write-temp-then-rename, so a kill -9 mid-write leaves the previous
// snapshot intact). A replacement process restores the snapshot, dials in at
// incarnation + 1 (the handshake classifies it kAcceptRestart, which
// triggers the coordinator's NoteSiteRestarted stale-traffic fencing), and
// re-announces its outrefs exactly like Site::CrashRestart does: volatile
// state — in-flight traces, barriers, pins, visited marks — is gone, and the
// re-registration InsertMsgs rebuild the distributed picture.
//
// A severed socket (the process survives, only the connection drops) redials
// at the *same* incarnation and resumes: kAcceptReconnect, no fencing.
//
// The snapshot codec and SiteAgentTransport are exposed separately from the
// process main loop so wire_test can exercise capture/encode/decode/apply
// round-trips without forking.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "backinfo/site_back_info.h"
#include "common/check.h"
#include "common/ids.h"
#include "net/transport.h"
#include "net/wire.h"
#include "refs/tables.h"
#include "sim/scheduler.h"
#include "store/heap.h"

namespace dgc {

class Site;

/// Transport implementation a site process runs its Site over. The host's
/// frame loop calls RunUntilTime / Deliver / TakeStaged in strict
/// alternation.
class SiteAgentTransport final : public Transport {
 public:
  SiteAgentTransport(SiteId site, bool failure_detection)
      : site_(site), failure_detection_(failure_detection) {}

  [[nodiscard]] Scheduler& scheduler() override { return scheduler_; }

  void RegisterSite(SiteId site, Handler handler) override {
    DGC_CHECK(site == site_);
    handler_ = std::move(handler);
  }
  /// Stages the send for the next reply to the coordinator, self-sends
  /// included (they take a network round trip in every backend).
  void Send(SiteId from, SiteId to, Payload payload) override {
    DGC_CHECK(from == site_);
    staged_.push_back(Envelope{from, to, std::move(payload)});
  }

  void SetRecoveryListener(SiteId observer, RecoveryListener l) override {
    DGC_CHECK(observer == site_);
    recovery_listener_ = std::move(l);
  }
  /// Incarnations are coordinator state; a site process never restarts
  /// in-process (a crash is a real process death), so this cannot be
  /// reached from the hosted Site.
  void NoteSiteRestarted(SiteId /*site*/) override {}
  [[nodiscard]] bool IsPeerSuspected(SiteId observer,
                                     SiteId peer) const override {
    DGC_CHECK(observer == site_);
    return std::binary_search(suspected_.begin(), suspected_.end(), peer);
  }
  [[nodiscard]] bool failure_detection_enabled() const override {
    return failure_detection_;
  }

  void RunUntilTime(SimTime t) { scheduler_.RunUntil(t); }

  // --- Host-facing surface ----------------------------------------------

  /// Installs the suspected-peer set shipped in a StepRequest (sorted).
  void SetSuspected(std::vector<SiteId> suspected) {
    suspected_ = std::move(suspected);
    std::sort(suspected_.begin(), suspected_.end());
  }
  /// Fires the site's recovery listener (park/unpark machinery) for a peer
  /// the coordinator reports as recovered; `restarted` marks the peer a new
  /// incarnation (the site scrubs the dead incarnation's traces first).
  void NotifyRecovered(SiteId peer, bool restarted) {
    if (recovery_listener_) recovery_listener_(peer, restarted);
  }
  /// Hands one coordinator-delivered envelope to the site's handler.
  void Deliver(const Envelope& env) {
    DGC_CHECK(handler_ != nullptr);
    handler_(env);
  }
  [[nodiscard]] std::vector<Envelope> TakeStaged() {
    return std::exchange(staged_, {});
  }
  /// Puts taken sends back at the FRONT of the staged queue — used when the
  /// reply carrying them could not be written (socket severed mid-step), so
  /// they ship after the reconnect instead of being silently dropped.
  void Restage(std::vector<Envelope> envelopes) {
    envelopes.insert(envelopes.end(),
                     std::make_move_iterator(staged_.begin()),
                     std::make_move_iterator(staged_.end()));
    staged_ = std::move(envelopes);
  }

 private:
  SiteId site_;
  bool failure_detection_;
  Scheduler scheduler_;
  Handler handler_;
  RecoveryListener recovery_listener_;
  std::vector<SiteId> suspected_;  // sorted
  std::vector<Envelope> staged_;
};

// ---------------------------------------------------------------------------
// Durable snapshot: exactly the state Site::CrashRestart preserves.

struct SiteSnapshot {
  SiteId site = kInvalidSite;
  /// Incarnation the snapshotting process ran as; a replacement process
  /// dials in at incarnation + 1.
  std::uint32_t incarnation = 0;
  HeapImage heap;
  /// The ref tables themselves; their entries' Fields lists (refs/tables.h)
  /// leave the volatile pins out.
  RefTables::InrefMap inrefs;
  RefTables::OutrefMap outrefs;
  /// Back info: the suspected-inref outsets; insets are recomputed on
  /// restore (they are always the exact inverse).
  OutsetMap inref_outsets;
};

[[nodiscard]] SiteSnapshot CaptureSiteSnapshot(const Site& site,
                                               std::uint32_t incarnation);
[[nodiscard]] std::vector<std::uint8_t> EncodeSiteSnapshot(
    const SiteSnapshot& snapshot);
/// Fails on unreadable bytes and on a snapshot that would corrupt the site
/// it restores into: a free slot out of range, live or listed twice; a dead
/// slot holding references; a persistent root, or an inref not flagged
/// garbage, that names no live local object; an inref source naming the
/// site itself; an outref naming no other site.
[[nodiscard]] bool DecodeSiteSnapshot(const std::vector<std::uint8_t>& bytes,
                                      SiteSnapshot& out);
/// Restores a snapshot into a freshly constructed Site (heap, tables, back
/// info). Does NOT re-announce outrefs — callers decide when the
/// re-registration traffic flows (the host does it right after the restart
/// handshake, mirroring the tail of Site::CrashRestart).
void ApplySiteSnapshot(Site& site, const SiteSnapshot& snapshot);

/// Write-temp-then-rename so a crash mid-write never corrupts the previous
/// snapshot. Returns false on I/O failure.
[[nodiscard]] bool WriteSnapshotFile(const std::string& path,
                                     const SiteSnapshot& snapshot);
[[nodiscard]] bool ReadSnapshotFile(const std::string& path,
                                    SiteSnapshot& out);

// ---------------------------------------------------------------------------
// Process main loop.

struct SiteHostOptions {
  std::string socket_path;
  SiteId site = kInvalidSite;
  /// Durable snapshot location; empty runs the site without crash
  /// durability (a restart then rejoins empty, like a disk-less node).
  std::string snapshot_path;
  /// Re-serialize the snapshot after every step/build op. Off trades crash
  /// fidelity for throughput.
  bool snapshot_each_step = true;
  /// Budget for the initial dial and for each redial after a severed
  /// socket, retried every dial_retry_ms until the budget runs out.
  int dial_timeout_ms = 10'000;
  int dial_retry_ms = 20;
};

/// Runs a site process to completion: dial, handshake, optional snapshot
/// restore, then the frame loop until Shutdown or a dead coordinator.
/// Returns the process exit code (0 = clean shutdown, 2 = could not dial,
/// 3 = handshake rejected, 4 = protocol error).
int RunSiteProcess(const SiteHostOptions& options);

}  // namespace dgc
