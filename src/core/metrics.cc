#include "core/metrics.h"

#include <sstream>

namespace dgc {

void MetricsRecorder::Capture(const System& system) {
  MetricsSample sample;
  sample.round = system.rounds_run();
  sample.time = system.now();
  sample.objects_stored = system.TotalObjects();
  sample.objects_reclaimed = system.TotalObjectsReclaimed();
  for (SiteId s = 0; s < system.site_count(); ++s) {
    const Site& site = system.site(s);
    const Distance threshold = site.config().suspicion_threshold;
    for (const auto& [obj, entry] : site.tables().inrefs()) {
      (void)obj;
      if (entry.garbage_flagged) ++sample.garbage_flagged_inrefs;
      if (!entry.clean(threshold)) ++sample.suspected_inrefs;
    }
    for (const auto& [ref, entry] : site.tables().outrefs()) {
      (void)ref;
      if (!entry.clean()) ++sample.suspected_outrefs;
    }
  }
  sample.heap = system.AggregateHeapOccupancy();
  sample.site = system.AggregateSiteStats();
  sample.bt = system.AggregateBackTracerStats();
  sample.net = system.network().stats();
  samples_.push_back(sample);
}

void MetricsRecorder::CaptureRounds(System& system, std::size_t rounds) {
  for (std::size_t i = 0; i < rounds; ++i) {
    system.RunRound();
    Capture(system);
  }
}

std::string MetricsRecorder::ToCsv() const {
  std::ostringstream os;
  const char* sep = "";
  const MetricsSample header;
  ForEachCounter(header, [&](const std::string& name, auto) {
    os << sep << name;
    sep = ",";
  });
  os << '\n';
  for (const MetricsSample& sample : samples_) {
    sep = "";
    ForEachCounter(sample, [&](const std::string&, auto value) {
      os << sep << value;
      sep = ",";
    });
    os << '\n';
  }
  return os.str();
}

}  // namespace dgc
