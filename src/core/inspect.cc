#include "core/inspect.h"

#include <algorithm>
#include <sstream>

namespace dgc {

namespace {

void AppendDistance(std::ostringstream& os, Distance d) {
  if (d == kDistanceInfinity) {
    os << "inf";
  } else {
    os << d;
  }
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
    for (const auto& [source, info] : entry.sources) {
      if (!first) os << ",";
      os << "s" << source << ":";
      AppendDistance(os, info.distance);
      first = false;
    }
    os << "}" << (entry.clean(threshold) ? " clean" : " SUSPECTED")
       << (entry.garbage_flagged ? " FLAGGED" : "")
       << (entry.clean_override ? " (barrier-cleaned)" : "");
    if (!entry.visited.empty()) os << " visited:" << entry.visited.size();
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
    if (!entry.visited.empty()) os << " visited:" << entry.visited.size();
    os << "\n";
  }

  const BackTracerStats& stats = site.back_tracer().stats();
  os << "  back tracer: " << stats.traces_started << " started, "
     << stats.traces_completed_garbage << " garbage, "
     << stats.traces_completed_live << " live, "
     << site.back_tracer().active_frames() << " active frames\n";
  if (site.config().incremental_trace) {
    os << "  incremental: " << site.stats().quiescent_skips
       << " quiescent skips, " << site.stats().objects_retraced
       << " objects retraced, " << site.stats().outsets_reused
       << " outsets reused, " << site.heap().dirty_object_count()
       << " dirty objects\n";
  }
  if (site.config().mark_threads > 1) {
    os << "  parallel mark: " << site.config().mark_threads << " threads, "
       << site.stats().mark_wall_ns << " ns marking, "
       << site.stats().mark_steals << " shard steals\n";
  }
  if (site.stats().transport_handoffs + site.stats().transport_staged_sends >
      0) {
    os << "  transport: " << site.stats().transport_handoffs
       << " inbox handoffs, " << site.stats().transport_staged_sends
       << " staged sends, queue peak " << site.stats().transport_queue_peak
       << " (contention " << site.stats().transport_queue_contention
       << ", overflows " << site.stats().transport_queue_overflows << ")\n";
  }
  os << "  ref tables: " << site.stats().table_slot_capacity
     << " slots (occupancy " << site.stats().table_occupancy << "), "
     << site.stats().table_slot_reuses << " slot reuses, "
     << site.stats().table_slot_grows << " grows\n";
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
  const NetworkStats& net = system.network().stats();
  os << "  network: " << net.inter_site_sent << " logical msgs ("
     << net.wire_messages << " wire), " << net.approx_bytes << " bytes, "
     << net.dropped << " dropped\n";
  if (net.retransmits + net.dup_suppressed + net.acks_sent +
          net.stale_incarnation_rejected >
      0) {
    os << "  reliable channels: " << net.retransmits << " retransmits ("
       << net.retransmits_exhausted << " exhausted), " << net.dup_suppressed
       << " dup-suppressed, " << net.acks_sent << " acks, "
       << net.stale_incarnation_rejected << " stale-incarnation rejects\n";
  }
  const BackTracerStats bt = system.AggregateBackTracerStats();
  os << "  back traces: " << bt.traces_started << " started, "
     << bt.traces_completed_garbage << " garbage, "
     << bt.traces_completed_live << " live, " << bt.clean_rule_hits
     << " clean-rule hits, " << bt.timeouts << " timeouts\n";
  if (net.fd_suspicions + bt.calls_parked > 0) {
    os << "  failure detector: " << net.fd_suspicions << " suspected outages, "
       << net.fd_recoveries << " recoveries, " << bt.calls_parked
       << " calls parked (" << bt.calls_unparked << " resumed)\n";
  }
  const WorkerPoolStats pool = system.worker_pool().stats();
  if (pool.batches > 0) {
    std::uint64_t steals = 0;
    std::uint64_t mark_ns = 0;
    for (SiteId s = 0; s < system.site_count(); ++s) {
      steals += system.site(s).stats().mark_steals;
      mark_ns += system.site(s).stats().mark_wall_ns;
    }
    os << "  worker pool: " << pool.batches << " batches, " << pool.tasks_run
       << " tasks (occupancy " << pool.occupancy() << "), "
       << system.trace_executor().stats().batches << " trace rounds, "
       << mark_ns << " ns marking, " << steals << " shard steals\n";
  }
  if (system.transport().kind() == TransportKind::kThreaded) {
    const TransportCounters transport = system.transport().counters();
    os << "  transport: threaded, " << transport.timesteps << " timesteps, "
       << transport.parallel_phases << " parallel phases, "
       << transport.site_steps << " site steps, " << transport.handoffs
       << " inbox handoffs, " << transport.staged_sends
       << " staged sends (queue peak " << transport.inbox_peak_depth
       << ", contention " << transport.inbox_contention << ", overflows "
       << transport.inbox_overflows << ")\n";
  }
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
