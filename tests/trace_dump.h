// Serializes every semantic field of a TraceResult, for twin-determinism
// tests: two results are byte-identical when their dumps match. Wall times
// and the work-stealing schedule counters (mark_steals, mark_batches)
// legitimately vary run to run and are excluded; everything else must be
// bit-identical at any thread count.
#pragma once

#include <sstream>
#include <string>

#include "localgc/trace_result.h"

namespace dgc {

inline std::string DumpTraceResult(const TraceResult& r) {
  std::ostringstream os;
  os << "epoch " << r.epoch << '\n';
  os << "outrefs";  // ref, then ~ if unreached, + if clean, then =distance
  for (const OutrefRecord& o : r.outrefs) {
    os << ' ' << o.ref << (o.reached ? "" : "~") << (o.clean ? "+" : "")
       << '=' << o.distance;
  }
  os << "\nsnapshot_inrefs";
  for (const ObjectId id : r.snapshot_inrefs) os << ' ' << id;
  os << "\nobjects_to_free";
  for (const ObjectId id : r.objects_to_free) os << ' ' << id;
  os << "\ninref_outsets";
  for (const auto& [inref, outset] : r.back_info.inref_outsets) {
    os << ' ' << inref << ":[";
    for (const ObjectId out : outset) os << out << ' ';
    os << ']';
  }
  os << "\noutref_insets";
  for (const auto& [outref, inset] : r.back_info.outref_insets) {
    os << ' ' << outref << ":[";
    for (const ObjectId in : inset) os << in << ' ';
    os << ']';
  }
  os << "\nstats " << r.stats.objects_marked_clean << ' '
     << r.stats.objects_marked_suspect << ' ' << r.stats.objects_swept << ' '
     << r.stats.edges_scanned_clean << ' ' << r.stats.suspect_objects_traced
     << ' ' << r.stats.suspect_edges_scanned << ' '
     << r.stats.suspected_inrefs << ' ' << r.stats.suspected_outrefs << ' '
     << r.stats.distinct_outsets << ' ' << r.stats.back_info_elements << '\n';
  return os.str();
}

}  // namespace dgc
