#include "net/socket_world.h"

#include <stdlib.h>
#include <unistd.h>

#include <algorithm>
#include <memory>
#include <utility>

#include "common/check.h"
#include "net/site_host.h"

namespace dgc {

SocketWorld::SocketWorld(SocketWorldOptions options)
    : options_(std::move(options)) {
  DGC_CHECK(options_.site_count > 0);
  // Same derivation System's constructor applies, so the CollectorConfig
  // shipped to site processes carries identical protocol timeouts.
  DeriveReliabilityTimeouts(options_.collector, options_.network);

  if (options_.state_dir.empty()) {
    char tmpl[] = "/tmp/dgc_socket_XXXXXX";
    const char* dir = mkdtemp(tmpl);
    DGC_CHECK_MSG(dir != nullptr, "mkdtemp failed");
    state_dir_ = dir;
    owns_state_dir_ = true;
  } else {
    state_dir_ = options_.state_dir;
  }

  transport_ = std::make_unique<SocketTransport>(
      options_.site_count, control_, options_.network, Rng(options_.seed),
      state_dir_ + "/coordinator.sock");
  transport_->set_site_config(options_.collector);

  Supervisor::Options sup;
  sup.backoff_initial_ms = options_.network.socket.restart_backoff_initial_ms;
  sup.backoff_max_ms = options_.network.socket.restart_backoff_max_ms;
  sup.max_restarts = options_.network.socket.max_restarts;
  // A site that stays up 30 s is healthy again: its next crash starts a
  // fresh backoff and max_restarts budget.
  sup.healthy_uptime_reset_ms = 30'000;
  supervisor_ = std::make_unique<Supervisor>(sup);

  for (SiteId s = 0; s < options_.site_count; ++s) {
    Supervisor::SiteSpec spec;
    if (options_.site_exec_argv.empty()) {
      SiteHostOptions host;
      host.socket_path = transport_->socket_path();
      host.site = s;
      host.snapshot_path = SnapshotPathFor(s);
      host.snapshot_each_step = options_.network.socket.snapshot_each_step;
      spec.run = [host] { return RunSiteProcess(host); };
    } else {
      spec.exec_argv = options_.site_exec_argv;
      spec.exec_argv.insert(spec.exec_argv.end(),
                            {"--role", "site", "--site", std::to_string(s),
                             "--socket", transport_->socket_path(),
                             "--snapshot", SnapshotPathFor(s)});
    }
    supervisor_->AddSite(std::move(spec));
  }

  transport_->set_hooks({
      /*poll=*/[this] { return supervisor_->Poll(); },
      /*restart_pending=*/[this] { return supervisor_->AnyRestartPending(); },
  });

  supervisor_->StartAll();
  DGC_CHECK_MSG(transport_->WaitForAllConnected(options_.connect_timeout_ms),
                "site processes did not all connect within "
                    << options_.connect_timeout_ms << "ms");
}

SocketWorld::~SocketWorld() {
  transport_->ShutdownAll();
  supervisor_->TerminateAll();
  transport_.reset();
  if (owns_state_dir_) {
    // Best-effort cleanup of the snapshots; the (now unlinked) socket and
    // the directory itself.
    for (SiteId s = 0; s < options_.site_count; ++s) {
      unlink(SnapshotPathFor(s).c_str());
      unlink((SnapshotPathFor(s) + ".tmp").c_str());
    }
    rmdir(state_dir_.c_str());
  }
}

std::string SocketWorld::SnapshotPathFor(SiteId site) const {
  return state_dir_ + "/site_" + std::to_string(site) + ".snap";
}

// ---------------------------------------------------------------------------
// Build surface.

// Build ops are god-mode test scaffolding: issuing one against a site that
// is down or paused is a driver bug, hence the DGC_CHECKs here. RunRound is
// the exception — a round must tolerate a faulted site (see below).
ObjectId SocketWorld::NewObject(SiteId site, std::size_t slots) {
  wire::BuildOpFrame op;
  op.op = wire::BuildOpKind::kNewObject;
  op.n = slots;
  wire::BuildReplyFrame reply;
  DGC_CHECK_MSG(transport_->RunBuildOp(site, op, reply),
                "NewObject on unreachable site " << site);
  DGC_CHECK(reply.result.valid() && reply.result.site == site);
  return reply.result;
}

void SocketWorld::SetPersistentRoot(ObjectId obj) {
  wire::BuildOpFrame op;
  op.op = wire::BuildOpKind::kSetRoot;
  op.a = obj;
  wire::BuildReplyFrame reply;
  DGC_CHECK_MSG(transport_->RunBuildOp(obj.site, op, reply),
                "SetPersistentRoot on unreachable site " << obj.site);
}

void SocketWorld::Wire(ObjectId source, std::size_t slot, ObjectId target) {
  wire::BuildReplyFrame reply;
  if (!target.valid() || target.site == source.site) {
    wire::BuildOpFrame op;
    op.op = wire::BuildOpKind::kWireLocal;
    op.a = source;
    op.b = target;
    op.slot = static_cast<std::uint32_t>(slot);
    DGC_CHECK_MSG(transport_->RunBuildOp(source.site, op, reply),
                  "Wire on unreachable site " << source.site);
    return;
  }
  // Cross-site: Site::WireSource then Site::WireTarget, in System::Wire's
  // order (source slot + outref first, then the target-side inref).
  wire::BuildOpFrame src;
  src.op = wire::BuildOpKind::kWireSource;
  src.a = source;
  src.b = target;
  src.slot = static_cast<std::uint32_t>(slot);
  DGC_CHECK_MSG(transport_->RunBuildOp(source.site, src, reply),
                "Wire on unreachable site " << source.site);

  wire::BuildOpFrame dst;
  dst.op = wire::BuildOpKind::kWireTarget;
  dst.a = ObjectId{source.site, 0};  // only the site half is meaningful
  dst.b = target;
  DGC_CHECK_MSG(transport_->RunBuildOp(target.site, dst, reply),
                "Wire on unreachable site " << target.site);
}

void SocketWorld::Unwire(ObjectId source, std::size_t slot) {
  wire::BuildOpFrame op;
  op.op = wire::BuildOpKind::kUnwire;
  op.a = source;
  op.slot = static_cast<std::uint32_t>(slot);
  wire::BuildReplyFrame reply;
  DGC_CHECK_MSG(transport_->RunBuildOp(source.site, op, reply),
                "Unwire on unreachable site " << source.site);
}

void SocketWorld::RunRound() {
  for (SiteId s = 0; s < options_.site_count; ++s) {
    if (transport_->responsive(s)) {
      wire::BuildOpFrame op;
      op.op = wire::BuildOpKind::kStartTrace;
      // A site may go dark (or die) mid-round; the round continues without
      // it — exactly how System's RunRound behaves under a SiteOutage.
      wire::BuildReplyFrame reply;
      (void)transport_->RunBuildOp(s, op, reply);
    }
    SettleNetwork();
  }
}

void SocketWorld::RunRounds(std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) RunRound();
}

void SocketWorld::SettleNetwork() { transport_->Settle(); }

// ---------------------------------------------------------------------------
// Census.

bool SocketWorld::QuerySite(SiteId site, wire::QueryReplyFrame& out) {
  return transport_->RunQuery(site, out);
}

std::vector<ObjectId> SocketWorld::SurvivingObjects() {
  std::vector<ObjectId> survivors;
  for (SiteId s = 0; s < options_.site_count; ++s) {
    wire::QueryReplyFrame reply;
    if (QuerySite(s, reply)) {
      survivors.insert(survivors.end(), reply.survivors.begin(),
                       reply.survivors.end());
    }
  }
  std::sort(survivors.begin(), survivors.end());
  return survivors;
}

std::uint64_t SocketWorld::TotalObjects() {
  std::uint64_t total = 0;
  for (SiteId s = 0; s < options_.site_count; ++s) {
    wire::QueryReplyFrame reply;
    if (QuerySite(s, reply)) total += reply.objects;
  }
  return total;
}

std::uint64_t SocketWorld::TotalObjectsReclaimed() {
  std::uint64_t total = 0;
  for (SiteId s = 0; s < options_.site_count; ++s) {
    wire::QueryReplyFrame reply;
    if (QuerySite(s, reply)) total += reply.reclaimed;
  }
  return total;
}

bool SocketWorld::ObjectExists(ObjectId id) {
  if (!id.valid() || id.site >= options_.site_count) return false;
  wire::QueryReplyFrame reply;
  if (!QuerySite(id.site, reply)) return false;
  return std::binary_search(reply.survivors.begin(), reply.survivors.end(),
                            id);
}

// ---------------------------------------------------------------------------
// Chaos.

void SocketWorld::ArmFaultPlan(const FaultPlan& plan) {
  FaultHooks hooks = transport_->network().PlanHooks();
  // Process-level chaos: real signals and real socket closes. No
  // crash_restart hook — a killed process's supervised restart IS the
  // crash-restart under this transport.
  hooks.kill_process = [this](SiteId site) { supervisor_->Kill(site); };
  hooks.sever_socket = [this](SiteId site) {
    transport_->SeverConnection(site);
  };
  plan.Schedule(control_, std::move(hooks));
}

}  // namespace dgc
