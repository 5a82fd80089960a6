// Time-series metrics: per-round snapshots of the collector's global state,
// exportable as CSV — the raw material for the paper-style series plots
// (objects over rounds, suspicion ripening, message traffic, trace outcomes).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/counters.h"
#include "core/system.h"

namespace dgc {

/// One snapshot: the world gauges, then every counter record whole (site
/// is every SiteStats summed; the rest are the system's totals). A CSV
/// column per listed counter, named "<record>.<counter>" after the gauges.
struct MetricsSample {
  std::size_t round = 0;
  SimTime time = 0;
  std::size_t objects_stored = 0;
  std::uint64_t objects_reclaimed = 0;
  std::size_t suspected_inrefs = 0;
  std::size_t suspected_outrefs = 0;
  std::size_t garbage_flagged_inrefs = 0;
  System::HeapOccupancy heap;
  SiteStats site;
  BackTracerStats bt;
  NetworkStats net;
};

auto Counters(Is<MetricsSample> auto& s) {
  return std::tuple{
      Counter{"round", s.round},
      Counter{"time", s.time},
      Counter{"objects_stored", s.objects_stored},
      Counter{"objects_reclaimed", s.objects_reclaimed},
      Counter{"suspected_inrefs", s.suspected_inrefs},
      Counter{"suspected_outrefs", s.suspected_outrefs},
      Counter{"garbage_flagged_inrefs", s.garbage_flagged_inrefs},
      Counter{"heap", s.heap},
      Counter{"site", s.site},
      Counter{"bt", s.bt},
      Counter{"net", s.net}};
}
static_assert(ListsEveryMember<MetricsSample>());

class MetricsRecorder {
 public:
  /// Takes one snapshot of the system's current state.
  void Capture(const System& system);

  /// Convenience: runs `rounds` rounds, capturing after each.
  void CaptureRounds(System& system, std::size_t rounds);

  [[nodiscard]] const std::vector<MetricsSample>& samples() const {
    return samples_;
  }

  /// CSV with a header row; one line per sample.
  [[nodiscard]] std::string ToCsv() const;

  void clear() { samples_.clear(); }

 private:
  std::vector<MetricsSample> samples_;
};

}  // namespace dgc
