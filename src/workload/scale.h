// Scale engine: hundred-site / million-object worlds and an open-loop
// mutation driver (ROADMAP item "the million-object, hundred-site workload
// engine").
//
// Two pieces:
//
//   * a power-law topology generator. Social-graph-shaped reference
//     structure: target popularity is rank-biased (a few hub objects and hub
//     sites attract most references), local edges dominate with a
//     configurable remote fraction. The plan is pure data keyed by
//     (site, ordinal) — building it touches no System, so determinism is
//     testable by comparing plans, and the same plan can instantiate many
//     systems;
//
//   * an open-loop driver of actor-style request/reply traffic. Each arrival
//     spawns a ring of request/reply objects spanning several sites,
//     tethered to a root at the client site; a later arrival severs the
//     tether, turning the ring into a distributed garbage cycle. Arrivals
//     follow the configured rate regardless of collection progress (open
//     loop — the simulation clock is only ever advanced to the next event,
//     never drained), collection rounds fire on their own cadence, and the
//     per-cycle time from severing to full reclamation feeds a bounded
//     reservoir whose p50/p99 are the scale numbers the benches report.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"
#include "core/latency_reservoir.h"
#include "core/system.h"

namespace dgc::workload {

// --- Power-law topology ----------------------------------------------------

struct ScaleTopologySpec {
  std::size_t sites = 100;
  std::size_t objects_per_site = 10'000;  // 10^6 objects at 100 sites
  std::size_t slots_per_object = 3;
  /// Probability each slot is wired at all.
  double wire_probability = 0.9;
  /// Fraction of wired slots that cross sites.
  double remote_edge_fraction = 0.2;
  /// Rank bias ("hubbiness"), >= 1. Targets are drawn as
  /// ordinal = floor(N * u^hub_bias): bias 1 is uniform; larger values
  /// concentrate references on low-ordinal hub objects (and hub sites), a
  /// power-law in-degree distribution. The share of references landing on
  /// the top decile of ranks is 0.1^(1/hub_bias).
  double hub_bias = 2.0;
  /// Fraction of each site's hub objects (the first
  /// rooted_fraction * objects_per_site ordinals) tethered to persistent
  /// roots; everything else is reachable only through the reference graph.
  double rooted_fraction = 0.05;
  std::uint64_t seed = 1;
};

/// One planned reference: slot `slot` of object (from_site, from_ordinal)
/// points at object (to_site, to_ordinal).
struct PlannedEdge {
  std::uint32_t from_site = 0;
  std::uint32_t to_site = 0;
  std::uint32_t from_ordinal = 0;
  std::uint32_t to_ordinal = 0;
  std::uint32_t slot = 0;

  friend bool operator==(const PlannedEdge&, const PlannedEdge&) = default;
};

/// A planned persistent root tethering object (site, ordinal).
struct PlannedRoot {
  std::uint32_t site = 0;
  std::uint32_t ordinal = 0;

  friend bool operator==(const PlannedRoot&, const PlannedRoot&) = default;
};

struct ScaleTopologyPlan {
  ScaleTopologySpec spec;
  std::vector<PlannedEdge> edges;  // in target order, then source order
  std::vector<PlannedRoot> roots;
};

/// Pure and deterministic: the same spec (seed included) yields an identical
/// plan; no System is touched.
[[nodiscard]] ScaleTopologyPlan BuildScaleTopology(
    const ScaleTopologySpec& spec);

/// Allocates every planned object (god-mode wiring, like the other
/// builders), wires the planned edges and tethers the planned roots.
/// Returns the object ids indexed [site][ordinal].
std::vector<std::vector<ObjectId>> InstantiateScaleTopology(
    System& system, const ScaleTopologyPlan& plan);

// --- Open-loop request/reply driver ----------------------------------------

struct ScaleDriverSpec {
  /// Simulated time to drive (from the current clock).
  SimTime duration = 50'000;
  /// Mean simulated ticks between mutation arrivals (exponential
  /// interarrival; lower = higher load). The arrival process never waits for
  /// the collector: this is the open-loop control.
  SimTime mean_interarrival = 25;
  /// Mean lifetime of a request/reply cycle before its tether is severed.
  SimTime mean_lifetime = 400;
  /// Sites spanned by each request/reply ring (the garbage cycles are
  /// genuinely distributed for any value >= 2).
  std::size_t min_cycle_span = 2;
  std::size_t max_cycle_span = 4;
  /// Collection cadence: a staggered round of local traces starts every
  /// round_period ticks (site i offset by i * round_stagger), overlapping
  /// ongoing mutations — no drain between rounds.
  SimTime round_period = 500;
  SimTime round_stagger = 3;
  /// Same rank bias as the topology: client/hop sites are rank-biased.
  double hub_bias = 2.0;
  /// Reservoir capacity for the time-to-collect percentiles.
  std::size_t reservoir_capacity = 4096;
  std::uint64_t seed = 7;
};

struct ScaleDriverStats {
  std::uint64_t mutations = 0;  // spawn + sever events performed
  std::uint64_t cohorts_spawned = 0;
  std::uint64_t cohorts_severed = 0;
  std::uint64_t cohorts_collected = 0;
  std::uint64_t rounds_started = 0;
  std::uint64_t tethers_reused = 0;
  SimTime drove_for = 0;  // simulated time covered by Run()
};

class ScaleDriver {
 public:
  ScaleDriver(System& system, const ScaleDriverSpec& spec);

  /// Drives `spec.duration` of simulated time: arrivals, severs and
  /// collection rounds interleave through the scheduler; the clock is
  /// advanced event-to-event and never drained to idle. May be called
  /// repeatedly to extend the run.
  void Run();

  /// Closed-loop epilogue: stops the arrival process and runs full
  /// collection rounds (settling in between) until every severed cohort is
  /// reclaimed or `max_rounds` pass, harvesting time-to-collect for the
  /// stragglers. Returns true when everything severed was collected.
  bool Quiesce(std::size_t max_rounds = 60);

  [[nodiscard]] const ScaleDriverStats& stats() const { return stats_; }
  /// Severed-to-reclaimed latency sample (simulated ticks).
  [[nodiscard]] const LatencyReservoir& time_to_collect() const {
    return ttc_;
  }
  /// Cohorts severed but not yet observed fully reclaimed.
  [[nodiscard]] std::size_t backlog() const { return pending_.size(); }

 private:
  struct Cohort {
    std::vector<ObjectId> objects;
    ObjectId tether;        // rooted object whose slot 0 keeps the ring live
    SimTime sever_at = 0;   // scheduled sever time (live cohorts)
    SimTime severed_at = 0; // actual sever time (pending cohorts)
  };

  [[nodiscard]] SimTime NextExponential(SimTime mean);
  [[nodiscard]] SiteId BiasedSite();
  void Spawn();
  void Sever(Cohort cohort);
  /// Records time-to-collect for every pending cohort whose objects are all
  /// reclaimed.
  void Harvest();
  void StartStaggeredRound();

  System& system_;
  ScaleDriverSpec spec_;
  Rng rng_;
  std::vector<Cohort> live_;     // sorted by sever_at descending (next at back)
  std::vector<Cohort> pending_;  // severed, awaiting reclamation
  std::vector<std::vector<ObjectId>> free_tethers_;  // per site
  ScaleDriverStats stats_;
  LatencyReservoir ttc_;
};

}  // namespace dgc::workload
