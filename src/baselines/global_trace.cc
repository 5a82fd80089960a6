#include "baselines/global_trace.h"

#include <span>

#include "common/check.h"

namespace dgc::baselines {

namespace {
constexpr SiteId kCoordinator = 0;
}

GlobalTraceCollector::GlobalTraceCollector(System& system)
    : system_(system), states_(system.site_count()) {
  for (SiteId s = 0; s < system_.site_count(); ++s) {
    system_.site(s).SetExtensionHandler(
        [this, s](const Envelope& envelope) {
          return HandleMessage(s, envelope);
        });
  }
}

void GlobalTraceCollector::SendControl(SiteId to,
                                       GlobalGcControlMsg::Phase phase,
                                       std::uint64_t value) {
  ++current_.control_messages;
  system_.network().Send(kCoordinator, to,
                         GlobalGcControlMsg{epoch_, phase, value});
}

GlobalTraceCollector::Stats GlobalTraceCollector::RunCycle(SimTime max_wait) {
  ++epoch_;
  current_ = Stats{};
  cycle_done_ = false;
  const SimTime started = system_.scheduler().now();

  for (SiteId s = 0; s < system_.site_count(); ++s) {
    SendControl(s, GlobalGcControlMsg::Phase::kStartMark, 0);
  }
  // First probe round once the start wave has had a chance to land.
  pending_probe_replies_ = 0;
  system_.scheduler().After(1, [this] {
    probe_work_total_ = 0;
    pending_probe_replies_ = system_.site_count();
    ++current_.probe_rounds;
    for (SiteId s = 0; s < system_.site_count(); ++s) {
      SendControl(s, GlobalGcControlMsg::Phase::kProbe, 0);
    }
  });

  // Drive the world until the cycle completes or the deadline passes (a
  // crashed site never answers probes, so the sweep never starts).
  const SimTime deadline = started + max_wait;
  while (!cycle_done_ && system_.scheduler().now() < deadline) {
    if (!system_.scheduler().RunOne()) break;
  }
  current_.duration = system_.scheduler().now() - started;
  current_.completed = cycle_done_;
  return current_;
}

bool GlobalTraceCollector::HandleMessage(SiteId self,
                                         const Envelope& envelope) {
  if (const auto* gray = std::get_if<GlobalGcGrayMsg>(&envelope.payload)) {
    SiteState& state = states_[self];
    if (gray->epoch != epoch_) return true;
    std::deque<ObjectId> queue;
    for (const ObjectId target : gray->targets) {
      queue.push_back(target);
    }
    (void)state;
    MarkLocal(self, std::move(queue));
    return true;
  }
  const auto* control = std::get_if<GlobalGcControlMsg>(&envelope.payload);
  if (control == nullptr) return false;
  if (control->epoch != epoch_) return true;

  SiteState& state = states_[self];
  switch (control->phase) {
    case GlobalGcControlMsg::Phase::kStartMark: {
      state.epoch = epoch_;
      state.marked.clear();
      state.work_since_probe = 0;
      std::deque<ObjectId> roots;
      const Site& site = system_.site(self);
      for (const ObjectId root : site.heap().persistent_roots()) {
        roots.push_back(root);
      }
      for (const ObjectId root : site.AppRootObjects()) roots.push_back(root);
      MarkLocal(self, std::move(roots));
      return true;
    }
    case GlobalGcControlMsg::Phase::kProbe: {
      system_.network().Send(self, kCoordinator,
                             GlobalGcControlMsg{
                                 epoch_, GlobalGcControlMsg::Phase::kProbeReply,
                                 state.work_since_probe});
      ++current_.control_messages;
      state.work_since_probe = 0;
      return true;
    }
    case GlobalGcControlMsg::Phase::kProbeReply: {
      DGC_CHECK(self == kCoordinator);
      probe_work_total_ += control->value;
      DGC_CHECK(pending_probe_replies_ > 0);
      if (--pending_probe_replies_ == 0) {
        if (probe_work_total_ == 0) {
          // Quiescent: everyone may sweep.
          pending_sweep_acks_ = system_.site_count();
          for (SiteId s = 0; s < system_.site_count(); ++s) {
            SendControl(s, GlobalGcControlMsg::Phase::kSweep, 0);
          }
        } else {
          probe_work_total_ = 0;
          pending_probe_replies_ = system_.site_count();
          ++current_.probe_rounds;
          for (SiteId s = 0; s < system_.site_count(); ++s) {
            SendControl(s, GlobalGcControlMsg::Phase::kProbe, 0);
          }
        }
      }
      return true;
    }
    case GlobalGcControlMsg::Phase::kSweep: {
      std::vector<ObjectId> to_free;
      system_.site(self).heap().ForEach(
          [&](ObjectId id, std::span<const ObjectId>) {
            if (!state.marked.contains(id.index)) to_free.push_back(id);
          });
      for (const ObjectId id : to_free) system_.site(self).heap().Free(id);
      system_.network().Send(
          self, kCoordinator,
          GlobalGcControlMsg{epoch_, GlobalGcControlMsg::Phase::kSweepDone,
                             to_free.size()});
      ++current_.control_messages;
      return true;
    }
    case GlobalGcControlMsg::Phase::kSweepDone: {
      DGC_CHECK(self == kCoordinator);
      current_.objects_swept += control->value;
      DGC_CHECK(pending_sweep_acks_ > 0);
      if (--pending_sweep_acks_ == 0) cycle_done_ = true;
      return true;
    }
  }
  return true;
}

void GlobalTraceCollector::MarkLocal(SiteId self, std::deque<ObjectId> gray) {
  SiteState& state = states_[self];
  const Heap& heap = system_.site(self).heap();
  std::unordered_map<SiteId, std::vector<ObjectId>> remote_gray;
  while (!gray.empty()) {
    const ObjectId current = gray.front();
    gray.pop_front();
    DGC_CHECK(current.site == self);
    if (!heap.Exists(current)) continue;
    if (!state.marked.insert(current.index).second) continue;
    ++state.work_since_probe;
    for (const ObjectId target : heap.Slots(current)) {
      if (!target.valid()) continue;
      if (target.site == self) {
        gray.push_back(target);
      } else {
        remote_gray[target.site].push_back(target);
      }
    }
  }
  for (auto& [target_site, targets] : remote_gray) {
    ++current_.gray_messages;
    system_.network().Send(self, target_site,
                           GlobalGcGrayMsg{epoch_, std::move(targets)});
  }
}

}  // namespace dgc::baselines
