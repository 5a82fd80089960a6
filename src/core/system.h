// The whole simulated world: scheduler + network + sites, plus the global
// reachability oracle that tests and benches check the collector against.
//
// The oracle computes true liveness by tracing the union of all heaps from
// every root (persistent roots, application roots, and remote references
// pinned by mutator variables or the insert barrier) — knowledge no real
// site has, used only for validation. The safety, completeness and
// integrity checks share that one walk, which marks one bit per heap slot
// instead of building a set.
#pragma once

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/counters.h"
#include "common/rng.h"
#include "core/site.h"
#include "net/network.h"
#include "sim/fault_plan.h"
#include "sim/scheduler.h"

namespace dgc {

class System {
 public:
  System(std::size_t site_count, const CollectorConfig& collector_config = {},
         const NetworkConfig& network_config = {}, std::uint64_t seed = 1);

  ~System();

  System(const System&) = delete;
  System& operator=(const System&) = delete;

  [[nodiscard]] std::size_t site_count() const { return sites_.size(); }
  [[nodiscard]] Site& site(SiteId id) {
    DGC_CHECK(id < sites_.size());
    return *sites_[id];
  }
  [[nodiscard]] const Site& site(SiteId id) const {
    DGC_CHECK(id < sites_.size());
    return *sites_[id];
  }
  /// The one scheduler: the network's events and every site's timers.
  [[nodiscard]] Scheduler& scheduler() { return scheduler_; }
  [[nodiscard]] const Scheduler& scheduler() const { return scheduler_; }
  [[nodiscard]] Network& network() { return network_; }
  [[nodiscard]] const Network& network() const { return network_; }
  [[nodiscard]] Rng& rng() { return rng_; }

  /// Global simulated time.
  [[nodiscard]] SimTime now() const { return scheduler_.now(); }

  /// The scheduler a site's timers live on: the one scheduler.
  [[nodiscard]] Scheduler& SchedulerFor(SiteId /*site*/) { return scheduler_; }

  // --- World building (god mode; bypasses the mutator protocol) --------

  ObjectId NewObject(SiteId site, std::size_t slots);
  void SetPersistentRoot(ObjectId obj);

  /// Wires source.slots[slot] = target, maintaining outref/inref tables for
  /// cross-site edges.
  void Wire(ObjectId source, std::size_t slot, ObjectId target);

  /// Clears a slot. Reference deletion needs no eager bookkeeping
  /// (Section 6.1 ignores deletions); the next local traces notice.
  void Unwire(ObjectId source, std::size_t slot);

  // --- Driving the simulation ------------------------------------------

  /// One round (Section 3's unit of progress): every site runs one local
  /// trace, in site order, letting all resulting messages and back traces
  /// settle in between.
  void RunRound();

  /// A round where site i starts its trace at now + i * stagger without
  /// settling in between — the racy schedule for concurrency experiments.
  void RunRoundStaggered(SimTime stagger);

  void RunRounds(std::size_t n);

  /// Drains the scheduler (message deliveries, back traces, timeouts).
  void SettleNetwork();

  /// Advances the simulated clock by `delta`, running any events that fall
  /// due. Useful for timeout experiments in otherwise-quiet worlds, where
  /// no events would otherwise move time forward.
  void AdvanceTime(SimTime delta) { RunUntilTime(now() + delta); }

  /// Runs every event with time <= t, then advances the clock to t.
  void RunUntilTime(SimTime t) { scheduler_.RunUntil(t); }

  [[nodiscard]] std::size_t rounds_run() const { return rounds_; }

  /// Arms a chaos plan against this system: site outages flip
  /// Network::SetSiteDown (crash-restart variants additionally call
  /// Site::CrashRestart at heal), link flaps flip SetLinkDown, and
  /// drop-burst / latency-spike windows drive the network's chaos
  /// overrides with reference counting, so overlapping windows restore the
  /// configured values only when the last one ends. The plan's events then
  /// interleave with protocol traffic as the scheduler reaches them (e.g.
  /// during SettleNetwork or RunUntil).
  void ArmFaultPlan(const FaultPlan& plan);

  // --- Oracle and invariant checks --------------------------------------

  /// Objects truly reachable from some root anywhere, right now: the
  /// checks' walk, copied into a set for callers that want one.
  [[nodiscard]] std::set<ObjectId> ComputeLiveSet() const;

  /// Total objects currently stored across all sites.
  [[nodiscard]] std::size_t TotalObjects() const;

  [[nodiscard]] bool ObjectExists(ObjectId id) const;

  /// Safety: every truly live object still exists. Returns a description of
  /// the first violation, or an empty string.
  [[nodiscard]] std::string CheckSafety() const;

  /// Completeness: no stored object is garbage. Empty string when clean.
  [[nodiscard]] std::string CheckCompleteness() const;

  /// Referential integrity between outrefs, inrefs and live heap contents.
  /// Only meaningful when the network is idle. Empty string when clean.
  [[nodiscard]] std::string CheckReferentialIntegrity() const;

  /// The Local Safety Invariant of Section 6.1.1: for any suspected outref
  /// o, o.inset includes every inref o is locally reachable from. Only
  /// meaningful at quiescence (network idle, no trace in flight) — between
  /// a mutation and the next local trace the invariant is maintained by
  /// the transfer barrier cleaning o instead, which the check honours by
  /// skipping clean outrefs. Empty string when the invariant holds.
  [[nodiscard]] std::string CheckLocalSafetyInvariant() const;

  // --- Aggregate statistics ---------------------------------------------

  /// Every site's counters summed.
  [[nodiscard]] SiteStats AggregateSiteStats() const;
  [[nodiscard]] BackTracerStats AggregateBackTracerStats() const;
  [[nodiscard]] std::uint64_t TotalObjectsReclaimed() const;

  /// Aggregate occupancy across all heaps: slot-arena chunks, storage
  /// slots ever used, live objects in them, and free-list depth.
  struct HeapOccupancy {
    std::size_t arena_chunks = 0;
    std::size_t slot_capacity = 0;
    std::size_t live_objects = 0;
    std::size_t free_slots = 0;
  };
  [[nodiscard]] HeapOccupancy AggregateHeapOccupancy() const;

 private:
  CollectorConfig collector_config_;
  Scheduler scheduler_;
  Rng rng_;
  /// Every site's Transport. Its Rng is the first fork of rng_: moving
  /// this member changes every seeded run.
  Network network_;
  std::vector<std::unique_ptr<Site>> sites_;
  std::size_t rounds_ = 0;
};

auto Counters(Is<System::HeapOccupancy> auto& h) {
  return std::tuple{Counter{"arena_chunks", h.arena_chunks},
                    Counter{"slot_capacity", h.slot_capacity},
                    Counter{"live_objects", h.live_objects},
                    Counter{"free_slots", h.free_slots}};
}
static_assert(ListsEveryMember<System::HeapOccupancy>());

}  // namespace dgc
