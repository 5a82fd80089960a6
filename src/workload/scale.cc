#include "workload/scale.h"

#include <algorithm>
#include <cmath>
#include <tuple>
#include <utility>

#include "common/check.h"

namespace dgc::workload {

namespace {

/// Rank-biased draw in [0, n): floor(n * u^bias). bias 1 is uniform; larger
/// values concentrate mass on low ranks (hubs).
std::uint32_t BiasedRank(Rng& rng, std::size_t n, double bias) {
  DGC_CHECK(n > 0);
  const double u = rng.NextDouble();
  const auto rank =
      static_cast<std::uint32_t>(std::pow(u, bias) * static_cast<double>(n));
  return std::min<std::uint32_t>(rank, static_cast<std::uint32_t>(n - 1));
}

}  // namespace

// --- Power-law topology ----------------------------------------------------

ScaleTopologyPlan BuildScaleTopology(const ScaleTopologySpec& spec) {
  DGC_CHECK(spec.sites > 0);
  DGC_CHECK(spec.objects_per_site > 0);
  DGC_CHECK(spec.hub_bias >= 1.0);
  DGC_CHECK(spec.rooted_fraction >= 0.0 && spec.rooted_fraction <= 1.0);

  ScaleTopologyPlan plan;
  plan.spec = spec;
  Rng rng(spec.seed);

  const auto sites = static_cast<std::uint32_t>(spec.sites);
  const auto per_site = static_cast<std::uint32_t>(spec.objects_per_site);

  // Reserved whole: growing it would leave its step buffers resident in
  // the allocator, on top of the next world built in the same process.
  plan.edges.reserve(spec.sites * spec.objects_per_site *
                     spec.slots_per_object);
  for (std::uint32_t from_site = 0; from_site < sites; ++from_site) {
    for (std::uint32_t ordinal = 0; ordinal < per_site; ++ordinal) {
      for (std::uint32_t slot = 0; slot < spec.slots_per_object; ++slot) {
        if (!rng.NextBool(spec.wire_probability)) continue;
        std::uint32_t to_site = from_site;
        if (sites > 1 && rng.NextBool(spec.remote_edge_fraction)) {
          to_site = BiasedRank(rng, sites, spec.hub_bias);
          if (to_site == from_site) to_site = (to_site + 1) % sites;
        }
        std::uint32_t to_ordinal = BiasedRank(rng, per_site, spec.hub_bias);
        if (to_site == from_site && to_ordinal == ordinal) {
          to_ordinal = (to_ordinal + 1) % per_site;  // no self-edges
        }
        plan.edges.push_back(
            PlannedEdge{from_site, to_site, ordinal, to_ordinal, slot});
      }
    }
  }
  // Target order makes every ref-table insert while wiring an append: both
  // tables are keyed by target and an inref's sources by source site. Each
  // (source, slot) is wired once, so the order cannot change the world.
  std::sort(plan.edges.begin(), plan.edges.end(),
            [](const PlannedEdge& a, const PlannedEdge& b) {
              return std::tie(a.to_site, a.to_ordinal, a.from_site,
                              a.from_ordinal, a.slot) <
                     std::tie(b.to_site, b.to_ordinal, b.from_site,
                              b.from_ordinal, b.slot);
            });

  const auto rooted = static_cast<std::uint32_t>(
      spec.rooted_fraction * static_cast<double>(per_site));
  for (std::uint32_t site = 0; site < sites; ++site) {
    for (std::uint32_t ordinal = 0; ordinal < rooted; ++ordinal) {
      plan.roots.push_back(PlannedRoot{site, ordinal});
    }
  }
  return plan;
}

std::vector<std::vector<ObjectId>> InstantiateScaleTopology(
    System& system, const ScaleTopologyPlan& plan) {
  const ScaleTopologySpec& spec = plan.spec;
  DGC_CHECK_MSG(system.site_count() >= spec.sites,
                "system has " << system.site_count() << " sites, plan needs "
                              << spec.sites);
  std::vector<std::vector<ObjectId>> objects(spec.sites);
  for (std::uint32_t site = 0; site < spec.sites; ++site) {
    objects[site].reserve(spec.objects_per_site);
    for (std::uint32_t i = 0; i < spec.objects_per_site; ++i) {
      objects[site].push_back(system.NewObject(site, spec.slots_per_object));
    }
  }
  for (const PlannedRoot& root : plan.roots) {
    system.SetPersistentRoot(objects[root.site][root.ordinal]);
  }
  for (const PlannedEdge& edge : plan.edges) {
    system.Wire(objects[edge.from_site][edge.from_ordinal], edge.slot,
                objects[edge.to_site][edge.to_ordinal]);
  }
  return objects;
}

// --- Open-loop request/reply driver ----------------------------------------

ScaleDriver::ScaleDriver(System& system, const ScaleDriverSpec& spec)
    : system_(system),
      spec_(spec),
      rng_(spec.seed),
      free_tethers_(system.site_count()),
      ttc_(spec.reservoir_capacity, spec.seed ^ 0x7e5e4c01ULL) {
  DGC_CHECK(spec_.mean_interarrival > 0);
  DGC_CHECK(spec_.mean_lifetime > 0);
  DGC_CHECK(spec_.min_cycle_span >= 2);
  DGC_CHECK(spec_.max_cycle_span >= spec_.min_cycle_span);
  DGC_CHECK_MSG(system_.site_count() >= spec_.max_cycle_span,
                "cycle span exceeds site count");
  DGC_CHECK(spec_.hub_bias >= 1.0);
}

SimTime ScaleDriver::NextExponential(SimTime mean) {
  const double u = rng_.NextDouble();
  const double draw = -std::log(1.0 - u) * static_cast<double>(mean);
  return std::max<SimTime>(1, static_cast<SimTime>(draw));
}

SiteId ScaleDriver::BiasedSite() {
  return BiasedRank(rng_, system_.site_count(), spec_.hub_bias);
}

void ScaleDriver::Run() {
  const SimTime start = system_.now();
  const SimTime end = start + spec_.duration;
  SimTime next_spawn = start + NextExponential(spec_.mean_interarrival);
  SimTime next_round = start + spec_.round_period;
  for (;;) {
    SimTime next = std::min(next_spawn, next_round);
    if (!live_.empty()) next = std::min(next, live_.back().sever_at);
    if (next > end) break;
    // Open loop: advance the world exactly to the next driver event —
    // in-flight messages, traces and back traces run as their times come
    // up, but the driver never waits for them.
    system_.RunUntilTime(next);
    while (!live_.empty() && live_.back().sever_at <= next) {
      Cohort cohort = std::move(live_.back());
      live_.pop_back();
      Sever(std::move(cohort));
    }
    if (next_spawn <= next) {
      Spawn();
      next_spawn = next + NextExponential(spec_.mean_interarrival);
    }
    if (next_round <= next) {
      Harvest();
      StartStaggeredRound();
      next_round += spec_.round_period;
    }
  }
  system_.RunUntilTime(end);
  Harvest();
  stats_.drove_for += spec_.duration;
}

void ScaleDriver::Spawn() {
  ++stats_.mutations;
  ++stats_.cohorts_spawned;
  const std::size_t span =
      spec_.min_cycle_span +
      rng_.NextBelow(spec_.max_cycle_span - spec_.min_cycle_span + 1);
  // Distinct hop sites, rank-biased (hub sites serve most requests).
  std::vector<SiteId> hops;
  hops.reserve(span);
  hops.push_back(BiasedSite());
  while (hops.size() < span) {
    SiteId s = BiasedSite();
    while (std::find(hops.begin(), hops.end(), s) != hops.end()) {
      s = (s + 1) % static_cast<SiteId>(system_.site_count());
    }
    hops.push_back(s);
  }

  Cohort cohort;
  cohort.objects.reserve(span);
  for (const SiteId s : hops) cohort.objects.push_back(system_.NewObject(s, 2));
  // Request ring (slot 0 forward) plus reply edges (slot 1 back): severing
  // the tether leaves a strongly connected distributed garbage cycle.
  for (std::size_t i = 0; i < span; ++i) {
    system_.Wire(cohort.objects[i], 0, cohort.objects[(i + 1) % span]);
    system_.Wire(cohort.objects[i], 1,
                 cohort.objects[(i + span - 1) % span]);
  }

  const SiteId client = hops.front();
  if (!free_tethers_[client].empty()) {
    cohort.tether = free_tethers_[client].back();
    free_tethers_[client].pop_back();
    ++stats_.tethers_reused;
  } else {
    cohort.tether = system_.NewObject(client, 1);
    system_.SetPersistentRoot(cohort.tether);
  }
  system_.Wire(cohort.tether, 0, cohort.objects.front());

  cohort.sever_at = system_.now() + NextExponential(spec_.mean_lifetime);
  // Keep live_ sorted by sever_at descending so the soonest sever is at the
  // back (pop without shifting).
  const auto pos = std::upper_bound(
      live_.begin(), live_.end(), cohort.sever_at,
      [](SimTime t, const Cohort& c) { return t > c.sever_at; });
  live_.insert(pos, std::move(cohort));
}

void ScaleDriver::Sever(Cohort cohort) {
  ++stats_.mutations;
  ++stats_.cohorts_severed;
  system_.Unwire(cohort.tether, 0);
  // The tether object stays rooted and is recycled for a later cohort at the
  // same site, so long runs do not grow the root set without bound.
  free_tethers_[cohort.tether.site].push_back(cohort.tether);
  cohort.severed_at = system_.now();
  pending_.push_back(std::move(cohort));
}

void ScaleDriver::Harvest() {
  const SimTime now = system_.now();
  for (std::size_t i = 0; i < pending_.size();) {
    const Cohort& cohort = pending_[i];
    const bool reclaimed =
        std::all_of(cohort.objects.begin(), cohort.objects.end(),
                    [this](ObjectId obj) { return !system_.ObjectExists(obj); });
    if (!reclaimed) {
      ++i;
      continue;
    }
    ttc_.Record(now - cohort.severed_at);
    ++stats_.cohorts_collected;
    pending_[i] = std::move(pending_.back());
    pending_.pop_back();
  }
}

void ScaleDriver::StartStaggeredRound() {
  ++stats_.rounds_started;
  // Site s starts its trace at now + s * round_stagger; with round_stagger 0
  // all traces share one instant.
  const SimTime base = system_.now();
  SimTime offset = 0;
  for (SiteId s = 0; s < system_.site_count(); ++s) {
    Site* site = &system_.site(s);
    system_.scheduler().At(base + offset, [site] {
      if (!site->trace_in_flight()) site->StartLocalTrace();
    });
    offset += spec_.round_stagger;
  }
}

bool ScaleDriver::Quiesce(std::size_t max_rounds) {
  system_.SettleNetwork();
  for (std::size_t i = 0; i < max_rounds; ++i) {
    Harvest();
    if (pending_.empty()) return true;
    system_.RunRound();
  }
  Harvest();
  return pending_.empty();
}

}  // namespace dgc::workload
