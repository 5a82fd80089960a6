// Baseline 5 (Section 7, "Central Service"): Beckerle & Ekanadham's fixed
// site collecting inref-to-outref reachability from every site and detecting
// inter-site garbage cycles centrally (Ladin & Liskov's replicated variant
// shares the shape).
//
// Each site ships a summary — the FULL reachability from every inref to
// every outref, plus which outrefs its roots reach — to the service site.
// The service builds the global ioref digraph, marks everything reachable
// from root-fed inrefs, and condemns the rest; the condemned inrefs are
// garbage-flagged at their sites and ordinary local traces reclaim them.
//
// The paper's criticisms, measured by the tests and bench_vs_baselines:
//   * the service is a bandwidth/processing bottleneck: summary bytes are
//     proportional to ALL inref-outref reachability (the paper's scheme
//     keeps insets for suspected iorefs only);
//   * "cycle collection still depends on timely correspondence between the
//     service and all sites" — a site that fails to report forces the
//     service to treat that site's inrefs conservatively as live, so any
//     cycle touching it survives.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "common/ids.h"
#include "core/system.h"

namespace dgc::baselines {

class CentralServiceCollector {
 public:
  struct Stats {
    std::uint64_t summary_messages = 0;
    /// The bottleneck figure: the summaries' encoded bytes.
    std::uint64_t summary_bytes = 0;
    std::uint64_t condemn_messages = 0;
    std::uint64_t inrefs_condemned = 0;
    std::size_t sites_reported = 0;
  };

  /// `service_site` hosts the logically-central service.
  CentralServiceCollector(System& system, SiteId service_site = 0);

  /// One detection cycle: every reachable site reports, the service
  /// analyses, condemnations go out, and the world settles. Sites that are
  /// down simply never report (their iorefs are treated as live).
  /// Follow with System::RunRounds to let local traces reclaim.
  void RunCycle();

  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  bool HandleMessage(SiteId self, const Envelope& envelope);
  void SendSummary(SiteId site);
  void Analyse();

  System& system_;
  SiteId service_site_;
  std::uint64_t epoch_ = 0;

  /// Service-side state for the in-progress epoch.
  struct SummaryData {
    std::map<ObjectId, std::vector<ObjectId>> inref_outsets;
    std::vector<ObjectId> root_reachable;
  };
  std::map<SiteId, SummaryData> reports_;
  Stats stats_;
};

}  // namespace dgc::baselines
