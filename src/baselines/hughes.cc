#include "baselines/hughes.h"

#include <algorithm>
#include <span>
#include <unordered_map>

#include "common/check.h"

namespace dgc::baselines {

namespace {
constexpr SiteId kService = 0;  // host of the logically-central service
}

HughesCollector::HughesCollector(System& system, std::size_t lag_rounds)
    : system_(system), states_(system.site_count()), lag_rounds_(lag_rounds) {
  const std::int64_t now = system_.scheduler().now();
  for (SiteId s = 0; s < system_.site_count(); ++s) {
    system_.site(s).SetExtensionHandler(
        [this, s](const Envelope& envelope) {
          return HandleMessage(s, envelope);
        });
    // Seed every pre-existing inref'd object with the current time so the
    // first traces treat remotely-referenced objects as live. (Construct
    // the collector after building the world.)
    for (const auto& [obj, entry] : system_.site(s).tables().inrefs()) {
      (void)entry;
      states_[s].inref_stamps.emplace(obj, now);
    }
  }
}

bool HughesCollector::HandleMessage(SiteId self, const Envelope& envelope) {
  if (const auto* update =
          std::get_if<TimestampUpdateMsg>(&envelope.payload)) {
    SiteState& state = states_[self];
    for (const auto& entry : update->entries) {
      DGC_CHECK(entry.ref.site == self);
      auto [it, inserted] = state.inref_stamps.emplace(entry.ref, entry.stamp);
      if (!inserted) it->second = std::max(it->second, entry.stamp);
    }
    return true;
  }
  if (const auto* control =
          std::get_if<GlobalGcControlMsg>(&envelope.payload)) {
    if (control->phase == GlobalGcControlMsg::Phase::kProbe) {
      ++stats_.control_messages;
      system_.network().Send(
          self, kService,
          GlobalGcControlMsg{
              control->epoch, GlobalGcControlMsg::Phase::kProbeReply,
              static_cast<std::uint64_t>(states_[self].trace_clock)});
      return true;
    }
    if (control->phase == GlobalGcControlMsg::Phase::kProbeReply) {
      // Collected by UpdateThreshold via probe_replies_.
      probe_replies_.push_back(static_cast<std::int64_t>(control->value));
      return true;
    }
  }
  return false;
}

void HughesCollector::RunLocalTrace(SiteId site_id) {
  SiteState& state = states_[site_id];
  Site& site = system_.site(site_id);
  const Heap& heap = site.heap();
  const std::int64_t now = system_.scheduler().now();

  // Roots in decreasing timestamp order: roots (now) first, then inrefs.
  // Sub-threshold inrefs are garbage and are not used as roots.
  std::vector<std::pair<std::int64_t, ObjectId>> roots;
  for (const ObjectId root : heap.persistent_roots()) {
    roots.emplace_back(now, root);
  }
  for (const ObjectId root : site.AppRootObjects()) {
    roots.emplace_back(now, root);
  }
  for (const auto& [obj, stamp] : state.inref_stamps) {
    if (!heap.Exists(obj)) continue;
    if (stamp < threshold_) continue;  // condemned: not a root
    roots.emplace_back(stamp, obj);
  }
  std::sort(roots.begin(), roots.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });

  // Mark with max timestamp (first touch in descending order) and collect
  // outref stamps.
  std::unordered_map<std::uint64_t, std::int64_t> marks;
  std::map<ObjectId, std::int64_t> outref_stamps;
  for (const auto& [stamp, root] : roots) {
    if (marks.contains(root.index)) continue;
    std::vector<ObjectId> stack{root};
    marks.emplace(root.index, stamp);
    while (!stack.empty()) {
      const ObjectId current = stack.back();
      stack.pop_back();
      for (const ObjectId target : heap.Slots(current)) {
        if (!target.valid()) continue;
        if (target.site != site_id) {
          auto [it, inserted] = outref_stamps.emplace(target, stamp);
          if (!inserted) it->second = std::max(it->second, stamp);
          continue;
        }
        if (marks.emplace(target.index, stamp).second) {
          stack.push_back(target);
        }
      }
    }
  }

  // Sweep unmarked objects and forget stamps of dead inrefs.
  std::vector<ObjectId> to_free;
  heap.ForEach([&](ObjectId id, std::span<const ObjectId>) {
    if (!marks.contains(id.index)) to_free.push_back(id);
  });
  for (const ObjectId id : to_free) {
    state.inref_stamps.erase(id);
    site.heap().Free(id);
  }
  stats_.objects_swept += to_free.size();

  // Send timestamp updates, batched per target site.
  std::map<SiteId, TimestampUpdateMsg> updates;
  for (const auto& [ref, stamp] : outref_stamps) {
    updates[ref.site].entries.push_back({ref, stamp});
  }
  for (auto& [target, msg] : updates) {
    msg.sender_trace_clock = now;
    ++stats_.update_messages;
    system_.network().Send(site_id, target, std::move(msg));
  }

  state.trace_clock = now;
}

void HughesCollector::UpdateThreshold() {
  probe_replies_.clear();
  ++probe_epoch_;
  for (SiteId s = 0; s < system_.site_count(); ++s) {
    ++stats_.control_messages;
    system_.network().Send(
        kService, s,
        GlobalGcControlMsg{probe_epoch_, GlobalGcControlMsg::Phase::kProbe, 0});
  }
  system_.SettleNetwork();
  if (probe_replies_.size() < system_.site_count()) {
    // Some site never answered (down): the threshold cannot advance — the
    // drawback the paper highlights for global schemes.
    return;
  }
  std::int64_t minimum = probe_replies_.front();
  for (const std::int64_t clock : probe_replies_) {
    minimum = std::min(minimum, clock);
  }
  // Lagged threshold (see header): only clocks from lag_rounds ago are
  // considered fully propagated.
  min_clock_history_.push_back(minimum);
  if (min_clock_history_.size() > lag_rounds_) {
    threshold_ =
        min_clock_history_[min_clock_history_.size() - 1 - lag_rounds_];
  }
  stats_.threshold = threshold_;
}

void HughesCollector::RunRound() {
  for (SiteId s = 0; s < system_.site_count(); ++s) {
    if (system_.network().IsSiteDown(s)) continue;  // crashed: no trace
    // Advance the clock a little so successive traces have distinct times.
    system_.scheduler().RunUntil(system_.scheduler().now() + 1);
    RunLocalTrace(s);
    system_.SettleNetwork();
  }
  UpdateThreshold();
}

}  // namespace dgc::baselines
