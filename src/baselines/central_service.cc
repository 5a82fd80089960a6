#include "baselines/central_service.h"

#include <deque>
#include <unordered_set>

#include "backinfo/outset_store.h"
#include "backinfo/suspect_trace.h"
#include "common/check.h"
#include "net/wire.h"

namespace dgc::baselines {

namespace {

/// Env for computing FULL outsets: nothing is "clean", so every inref's
/// complete local reachability to every outref is produced — the heavyweight
/// requirement the paper criticizes ("requires full reachability information
/// between all inrefs and outrefs").
struct FullEnv {
  const Heap* heap = nullptr;
  std::uint64_t epoch = 0;
  bool ObjectIsCleanMarked(ObjectId) const { return false; }
  bool OutrefIsClean(ObjectId) const { return false; }
  void OnSuspectMarked(ObjectId) {}
};

}  // namespace

CentralServiceCollector::CentralServiceCollector(System& system,
                                                 SiteId service_site)
    : system_(system), service_site_(service_site) {
  DGC_CHECK(service_site < system.site_count());
  for (SiteId s = 0; s < system_.site_count(); ++s) {
    system_.site(s).SetExtensionHandler(
        [this, s](const Envelope& envelope) {
          return HandleMessage(s, envelope);
        });
  }
}

void CentralServiceCollector::SendSummary(SiteId site_id) {
  const Site& site = system_.site(site_id);
  const Heap& heap = site.heap();
  ReachabilitySummaryMsg summary;
  summary.epoch = epoch_;

  // Root-reachable outrefs: BFS from persistent + app roots.
  {
    std::unordered_set<std::uint64_t> seen;
    std::deque<ObjectId> queue;
    const auto push = [&](ObjectId id) {
      if (heap.Exists(id) && seen.insert(id.index).second) queue.push_back(id);
    };
    for (const ObjectId root : heap.persistent_roots()) push(root);
    for (const ObjectId root : site.AppRootObjects()) push(root);
    std::set<ObjectId> root_outrefs;
    while (!queue.empty()) {
      const ObjectId current = queue.front();
      queue.pop_front();
      for (const ObjectId target : heap.Get(current).slots) {
        if (!target.valid()) continue;
        if (target.site != site_id) {
          root_outrefs.insert(target);
        } else {
          push(target);
        }
      }
    }
    // Pinned outrefs are root-held too.
    for (const ObjectId pinned : site.PinnedRemoteRefs()) {
      root_outrefs.insert(pinned);
    }
    summary.root_reachable_outrefs.assign(root_outrefs.begin(),
                                          root_outrefs.end());
  }

  // Full outset per inref (the §5.2 machinery with nothing treated clean).
  FullEnv env;
  OutsetStore store;
  BottomUpOutsetComputer<FullEnv> computer(heap, store, env);
  for (const auto& [obj, entry] : site.tables().inrefs()) {
    if (entry.garbage_flagged || !heap.Exists(obj)) continue;
    const auto outset_id = computer.TraceFrom(obj);
    summary.inrefs.push_back(
        ReachabilitySummaryMsg::InrefInfo{obj, store.Get(outset_id)});
  }

  ++stats_.summary_messages;
  stats_.summary_bytes += wire::EncodedSize(summary);
  system_.network().Send(site_id, service_site_, std::move(summary));
}

void CentralServiceCollector::RunCycle() {
  ++epoch_;
  reports_.clear();
  for (SiteId s = 0; s < system_.site_count(); ++s) {
    if (system_.network().IsSiteDown(s)) continue;  // never reports
    SendSummary(s);
  }
  system_.SettleNetwork();
  Analyse();
  system_.SettleNetwork();
}

bool CentralServiceCollector::HandleMessage(SiteId self,
                                            const Envelope& envelope) {
  if (const auto* summary =
          std::get_if<ReachabilitySummaryMsg>(&envelope.payload)) {
    DGC_CHECK(self == service_site_);
    if (summary->epoch != epoch_) return true;
    SummaryData& data = reports_[envelope.from];
    data.root_reachable = summary->root_reachable_outrefs;
    for (const auto& info : summary->inrefs) {
      data.inref_outsets[info.inref] = info.outset;
    }
    return true;
  }
  if (const auto* condemn = std::get_if<CondemnMsg>(&envelope.payload)) {
    if (condemn->epoch != epoch_) return true;
    for (const ObjectId obj : condemn->inrefs) {
      if (InrefEntry* entry = system_.site(self).tables().FindInref(obj)) {
        if (!entry->garbage_flagged) {
          entry->garbage_flagged = true;
          ++stats_.inrefs_condemned;
        }
      }
    }
    return true;
  }
  return false;
}

void CentralServiceCollector::Analyse() {
  stats_.sites_reported = reports_.size();
  if (reports_.size() < system_.site_count()) {
    // A silent site might hold the root path to anything: condemning with a
    // partial picture would be unsafe. Nothing is collected anywhere — the
    // exact dependence "on timely correspondence between the service and
    // all sites in the system" the paper criticizes.
    return;
  }
  // Node set: every inref named by any report. Edges: inref i@owner ->
  // (via the reporting site's outsets) inref r@its-owner. Roots feed every
  // inref named in a root_reachable list. Inrefs of NON-reporting sites are
  // conservatively live (and, since we lack their outsets, they propagate
  // nothing — their downstream stays uncollected too unless fed elsewhere;
  // conservative in the safe direction).
  std::set<ObjectId> live;
  std::deque<ObjectId> gray;
  const auto feed = [&](ObjectId inref) {
    if (live.insert(inref).second) gray.push_back(inref);
  };
  for (const auto& [site, data] : reports_) {
    (void)site;
    for (const ObjectId outref : data.root_reachable) feed(outref);
  }
  while (!gray.empty()) {
    const ObjectId current = gray.front();
    gray.pop_front();
    // current names an object at current.site; its local reachability is in
    // that site's report (if any).
    const auto report = reports_.find(current.site);
    if (report == reports_.end()) continue;  // silent site: stops here
    const auto outset = report->second.inref_outsets.find(current);
    if (outset == report->second.inref_outsets.end()) continue;
    for (const ObjectId next : outset->second) feed(next);
  }

  // Condemn reported inrefs not reached from any root.
  std::map<SiteId, CondemnMsg> condemnations;
  for (const auto& [site, data] : reports_) {
    for (const auto& [inref, outset] : data.inref_outsets) {
      (void)outset;
      if (!live.contains(inref)) {
        CondemnMsg& msg = condemnations[site];
        msg.epoch = epoch_;
        msg.inrefs.push_back(inref);
      }
    }
  }
  for (auto& [site, msg] : condemnations) {
    ++stats_.condemn_messages;
    system_.network().Send(service_site_, site, std::move(msg));
  }
}

}  // namespace dgc::baselines
