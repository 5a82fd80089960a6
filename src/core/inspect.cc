#include "core/inspect.h"

#include <algorithm>
#include <sstream>
#include <string>

#include "common/counters.h"

namespace dgc {

namespace {

void AppendDistance(std::ostringstream& os, Distance d) {
  if (d == kDistanceInfinity) {
    os << "inf";
  } else {
    os << d;
  }
}

/// " name=value" for every nonzero counter of `record`, in list order.
template <class R>
std::string NonZero(const R& record) {
  std::ostringstream os;
  ForEachCounter(record, [&os](const std::string& name, auto value) {
    if (value != 0) os << ' ' << name << '=' << value;
  });
  return os.str();
}

}  // namespace

std::string DescribeSite(const Site& site) {
  std::ostringstream os;
  const Distance threshold = site.config().suspicion_threshold;
  os << "site " << site.id() << ": " << site.heap().object_count()
     << " objects, " << site.heap().persistent_roots().size()
     << " persistent roots, " << site.AppRootObjects().size()
     << " app roots" << (site.trace_in_flight() ? " [trace in flight]" : "")
     << "\n";

  os << "  inrefs (" << site.tables().inrefs().size() << "):\n";
  for (const auto& [obj, entry] : site.tables().inrefs()) {
    os << "    " << obj << " dist=";
    AppendDistance(os, entry.distance());
    os << " sources={";
    bool first = true;
    for (const auto& [source, distance] : entry.sources) {
      if (!first) os << ",";
      os << "s" << source << ":";
      AppendDistance(os, distance);
      first = false;
    }
    os << "}" << (entry.clean(threshold) ? " clean" : " SUSPECTED")
       << (entry.garbage_flagged ? " FLAGGED" : "")
       << (entry.clean_override ? " (barrier-cleaned)" : "");
    const std::size_t visits =
        site.back_tracer().VisitCount(IorefKind::kInref, obj);
    if (visits != 0) os << " visited:" << visits;
    os << "\n";
  }

  os << "  outrefs (" << site.tables().outrefs().size() << "):\n";
  for (const auto& [ref, entry] : site.tables().outrefs()) {
    os << "    " << ref << " dist=";
    AppendDistance(os, entry.distance);
    os << (entry.clean() ? " clean" : " SUSPECTED");
    if (entry.pin_count > 0) os << " pins=" << entry.pin_count;
    if (entry.clean_override) os << " (barrier-cleaned)";
    os << " back_threshold=" << entry.back_threshold;
    const auto inset = site.back_info().outref_insets.find(ref);
    if (inset != site.back_info().outref_insets.end()) {
      os << " inset={";
      for (std::size_t i = 0; i < inset->second.size(); ++i) {
        if (i > 0) os << ",";
        os << inset->second[i];
      }
      os << "}";
    }
    const std::size_t visits =
        site.back_tracer().VisitCount(IorefKind::kOutref, ref);
    if (visits != 0) os << " visited:" << visits;
    os << "\n";
  }

  os << "  back tracer:" << NonZero(site.back_tracer().stats())
     << " active_frames=" << site.back_tracer().active_frames() << "\n";
  os << "  site stats:" << NonZero(site.stats())
     << " table_occupancy=" << site.tables().occupancy() << "\n";
  return os.str();
}

std::string DescribeSystem(const System& system) {
  std::ostringstream os;
  os << "system: " << system.site_count() << " sites, "
     << system.TotalObjects() << " objects stored, "
     << system.TotalObjectsReclaimed() << " reclaimed, round "
     << system.rounds_run() << "\n";
  for (SiteId s = 0; s < system.site_count(); ++s) {
    const Site& site = system.site(s);
    std::size_t suspected_in = 0;
    for (const auto& [obj, entry] : site.tables().inrefs()) {
      (void)obj;
      if (!entry.clean(site.config().suspicion_threshold)) ++suspected_in;
    }
    std::size_t suspected_out = 0;
    for (const auto& [ref, entry] : site.tables().outrefs()) {
      (void)ref;
      if (!entry.clean()) ++suspected_out;
    }
    os << "  site " << s << ": " << site.heap().object_count() << " objects, "
       << site.tables().inrefs().size() << " inrefs (" << suspected_in
       << " suspected), " << site.tables().outrefs().size() << " outrefs ("
       << suspected_out << " suspected), " << site.stats().local_traces
       << " traces" << (system.network().IsSiteDown(s) ? " [DOWN]" : "")
       << "\n";
  }
  os << "  network:" << NonZero(system.network().stats()) << "\n";
  os << "  back traces:" << NonZero(system.AggregateBackTracerStats()) << "\n";
  os << "  site stats:" << NonZero(system.AggregateSiteStats()) << "\n";
  return os.str();
}

std::string ToDot(const System& system) {
  std::ostringstream os;
  os << "digraph dgc {\n  rankdir=LR;\n  node [shape=circle];\n";
  for (SiteId s = 0; s < system.site_count(); ++s) {
    const Site& site = system.site(s);
    os << "  subgraph cluster_site" << s << " {\n"
       << "    label=\"site " << s << "\";\n";
    site.heap().ForEach([&](ObjectId id, const Object&) {
      os << "    \"" << id.site << ":" << id.index << "\"";
      std::vector<std::string> attrs;
      const auto& roots = site.heap().persistent_roots();
      if (std::find(roots.begin(), roots.end(), id) != roots.end()) {
        attrs.push_back("shape=doublecircle");
      }
      const InrefEntry* inref = site.tables().FindInref(id);
      if (inref != nullptr && inref->garbage_flagged) {
        attrs.push_back("style=filled");
        attrs.push_back("fillcolor=gray");
      } else if (inref != nullptr &&
                 !inref->clean(site.config().suspicion_threshold)) {
        attrs.push_back("style=dashed");
      }
      if (!attrs.empty()) {
        os << " [";
        for (std::size_t i = 0; i < attrs.size(); ++i) {
          if (i > 0) os << ",";
          os << attrs[i];
        }
        os << "]";
      }
      os << ";\n";
    });
    os << "  }\n";
  }
  for (SiteId s = 0; s < system.site_count(); ++s) {
    const Site& site = system.site(s);
    site.heap().ForEach([&](ObjectId id, const Object& object) {
      for (const ObjectId target : object.slots) {
        if (!target.valid()) continue;
        os << "  \"" << id.site << ":" << id.index << "\" -> \""
           << target.site << ":" << target.index << "\"";
        if (target.site != id.site) {
          os << " [";
          const OutrefEntry* outref = site.tables().FindOutref(target);
          if (outref != nullptr) {
            os << "label=\"d=";
            if (outref->distance == kDistanceInfinity) {
              os << "inf";
            } else {
              os << outref->distance;
            }
            os << "\"" << (outref->clean() ? "" : ",style=dashed,color=red");
          }
          os << "]";
        }
        os << ";\n";
      }
    });
  }
  os << "}\n";
  return os.str();
}

}  // namespace dgc
