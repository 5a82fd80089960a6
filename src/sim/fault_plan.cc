#include "sim/fault_plan.h"

#include <memory>

#include "common/check.h"

namespace dgc {

FaultPlan& FaultPlan::SiteOutage(SimTime at, SiteId site, SimTime duration,
                                 bool crash_restart) {
  DGC_CHECK(at >= 0 && duration > 0);
  Event event;
  event.kind = Kind::kSiteOutage;
  event.at = at;
  event.duration = duration;
  event.site = site;
  event.crash_restart = crash_restart;
  events_.push_back(event);
  return *this;
}

FaultPlan& FaultPlan::LinkFlap(SimTime at, SiteId a, SiteId b,
                               SimTime duration) {
  DGC_CHECK(at >= 0 && duration > 0);
  DGC_CHECK(a != b);
  Event event;
  event.kind = Kind::kLinkFlap;
  event.at = at;
  event.duration = duration;
  event.site = a;
  event.peer = b;
  events_.push_back(event);
  return *this;
}

FaultPlan& FaultPlan::DropBurst(SimTime at, SimTime duration,
                                double drop_probability) {
  DGC_CHECK(at >= 0 && duration > 0);
  DGC_CHECK(drop_probability >= 0.0 && drop_probability <= 1.0);
  Event event;
  event.kind = Kind::kDropBurst;
  event.at = at;
  event.duration = duration;
  event.drop_probability = drop_probability;
  events_.push_back(event);
  return *this;
}

FaultPlan& FaultPlan::LatencySpike(SimTime at, SimTime duration,
                                   SimTime extra_latency) {
  DGC_CHECK(at >= 0 && duration > 0);
  DGC_CHECK(extra_latency > 0);
  Event event;
  event.kind = Kind::kLatencySpike;
  event.at = at;
  event.duration = duration;
  event.extra_latency = extra_latency;
  events_.push_back(event);
  return *this;
}

FaultPlan& FaultPlan::KillProcess(SimTime at, SiteId site) {
  DGC_CHECK(at >= 0);
  Event event;
  event.kind = Kind::kKillProcess;
  event.at = at;
  event.site = site;
  events_.push_back(event);
  return *this;
}

FaultPlan& FaultPlan::SeverSocket(SimTime at, SiteId site) {
  DGC_CHECK(at >= 0);
  Event event;
  event.kind = Kind::kSeverSocket;
  event.at = at;
  event.site = site;
  events_.push_back(event);
  return *this;
}

void FaultPlan::Schedule(Scheduler& scheduler, FaultHooks hooks) const {
  // Hooks are shared by every scheduled closure (the begin/end pair of a
  // burst must see the same state the System hooks close over).
  const auto shared = std::make_shared<FaultHooks>(std::move(hooks));
  for (const Event& event : events_) {
    switch (event.kind) {
      case Kind::kSiteOutage:
        scheduler.At(event.at, [shared, site = event.site] {
          if (shared->set_site_down) shared->set_site_down(site, true);
        });
        scheduler.At(event.at + event.duration,
                     [shared, site = event.site, crash = event.crash_restart] {
                       // Restore connectivity before the restart: the
                       // restarted site immediately re-registers its outrefs
                       // with their owners, which a still-down network would
                       // swallow.
                       if (shared->set_site_down) {
                         shared->set_site_down(site, false);
                       }
                       if (crash && shared->crash_restart) {
                         shared->crash_restart(site);
                       }
                     });
        break;
      case Kind::kLinkFlap:
        scheduler.At(event.at, [shared, a = event.site, b = event.peer] {
          if (shared->set_link_down) shared->set_link_down(a, b, true);
        });
        scheduler.At(event.at + event.duration,
                     [shared, a = event.site, b = event.peer] {
                       if (shared->set_link_down) {
                         shared->set_link_down(a, b, false);
                       }
                     });
        break;
      case Kind::kDropBurst:
        scheduler.At(event.at, [shared, p = event.drop_probability] {
          if (shared->begin_drop_burst) shared->begin_drop_burst(p);
        });
        scheduler.At(event.at + event.duration, [shared] {
          if (shared->end_drop_burst) shared->end_drop_burst();
        });
        break;
      case Kind::kLatencySpike:
        scheduler.At(event.at, [shared, extra = event.extra_latency] {
          if (shared->begin_latency_spike) shared->begin_latency_spike(extra);
        });
        scheduler.At(event.at + event.duration, [shared] {
          if (shared->end_latency_spike) shared->end_latency_spike();
        });
        break;
      case Kind::kKillProcess:
        scheduler.At(event.at, [shared, site = event.site] {
          if (shared->kill_process) shared->kill_process(site);
        });
        break;
      case Kind::kSeverSocket:
        scheduler.At(event.at, [shared, site = event.site] {
          if (shared->sever_socket) shared->sever_socket(site);
        });
        break;
    }
  }
}

FaultPlan FaultPlan::Random(Rng& rng, const RandomSpec& spec) {
  DGC_CHECK(spec.sites >= 2);
  DGC_CHECK(spec.horizon > spec.max_duration);
  DGC_CHECK(spec.min_duration > 0 && spec.min_duration <= spec.max_duration);
  FaultPlan plan;
  const auto draw_start = [&] {
    return static_cast<SimTime>(rng.NextBelow(
        static_cast<std::uint64_t>(spec.horizon - spec.max_duration) + 1));
  };
  const auto draw_duration = [&] {
    return static_cast<SimTime>(
        rng.NextInRange(static_cast<std::uint64_t>(spec.min_duration),
                        static_cast<std::uint64_t>(spec.max_duration)));
  };
  for (std::size_t i = 0; i < spec.site_outages; ++i) {
    const SiteId site = static_cast<SiteId>(rng.NextBelow(spec.sites));
    const bool crash = spec.allow_crash_restarts && rng.NextBool(0.5);
    plan.SiteOutage(draw_start(), site, draw_duration(), crash);
  }
  for (std::size_t i = 0; i < spec.link_flaps; ++i) {
    const SiteId a = static_cast<SiteId>(rng.NextBelow(spec.sites));
    SiteId b = static_cast<SiteId>(rng.NextBelow(spec.sites - 1));
    if (b >= a) ++b;  // uniform over the other sites
    plan.LinkFlap(draw_start(), a, b, draw_duration());
  }
  for (std::size_t i = 0; i < spec.drop_bursts; ++i) {
    plan.DropBurst(draw_start(), draw_duration(),
                   spec.burst_drop_probability);
  }
  for (std::size_t i = 0; i < spec.latency_spikes; ++i) {
    plan.LatencySpike(draw_start(), draw_duration(),
                      spec.spike_extra_latency);
  }
  return plan;
}

}  // namespace dgc
