#include "core/metrics.h"

#include <sstream>

namespace dgc {

void MetricsRecorder::Capture(const System& system) {
  MetricsSample sample;
  sample.round = system.rounds_run();
  sample.time = system.now();
  sample.objects_stored = system.TotalObjects();
  sample.objects_reclaimed = system.TotalObjectsReclaimed();
  std::size_t table_live_entries = 0;
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
    table_live_entries +=
        site.tables().inrefs().size() + site.tables().outrefs().size();
    sample.table_slot_reuses += site.stats().table_slot_reuses;
    sample.table_slot_grows += site.stats().table_slot_grows;
    sample.table_slot_capacity += site.stats().table_slot_capacity;
    sample.quiescent_skips += site.stats().quiescent_skips;
    sample.objects_retraced += site.stats().objects_retraced;
    sample.outsets_reused += site.stats().outsets_reused;
    sample.mark_wall_ns += site.stats().mark_wall_ns;
    sample.mark_steals += site.stats().mark_steals;
  }
  const WorkerPoolStats pool = system.worker_pool().stats();
  sample.pool_batches = pool.batches;
  sample.pool_tasks_run = pool.tasks_run;
  sample.pool_occupancy = pool.occupancy();
  const NetworkStats& net = system.network().stats();
  sample.messages_sent = net.inter_site_sent;
  sample.wire_messages = net.wire_messages;
  sample.retransmits = net.retransmits;
  sample.dup_suppressed = net.dup_suppressed;
  sample.stale_incarnation_rejected = net.stale_incarnation_rejected;
  sample.fd_suspicions = net.fd_suspicions;
  const BackTracerStats bt = system.AggregateBackTracerStats();
  sample.traces_started = bt.traces_started;
  sample.traces_garbage = bt.traces_completed_garbage;
  sample.traces_live = bt.traces_completed_live;
  sample.calls_parked = bt.calls_parked;
  const System::TraceThroughput throughput = system.AggregateTraceThroughput();
  sample.local_traces = throughput.traces;
  sample.trace_wall_ns = throughput.wall_ns;
  sample.trace_objects_marked = throughput.objects_marked;
  sample.trace_objects_per_sec = throughput.objects_per_sec();
  const System::HeapOccupancy occupancy = system.AggregateHeapOccupancy();
  sample.slab_count = occupancy.slabs;
  sample.slab_slot_capacity = occupancy.slot_capacity;
  sample.slab_free_slots = occupancy.free_slots;
  sample.slab_occupancy = occupancy.occupancy();
  const TransportCounters transport = system.transport().counters();
  sample.transport_timesteps = transport.timesteps;
  sample.transport_phases = transport.parallel_phases;
  sample.transport_site_steps = transport.site_steps;
  sample.transport_handoffs = transport.handoffs;
  sample.transport_staged = transport.staged_sends;
  sample.transport_queue_peak = transport.inbox_peak_depth;
  sample.transport_queue_contention = transport.inbox_contention;
  sample.transport_queue_overflows = transport.inbox_overflows;
  sample.table_occupancy =
      sample.table_slot_capacity == 0
          ? 1.0
          : static_cast<double>(table_live_entries) /
                static_cast<double>(sample.table_slot_capacity);
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
  os << "round,time,objects_stored,objects_reclaimed,suspected_inrefs,"
        "suspected_outrefs,garbage_flagged_inrefs,messages_sent,"
        "wire_messages,traces_started,traces_garbage,traces_live,"
        "local_traces,trace_wall_ns,trace_objects_marked,"
        "trace_objects_per_sec,slab_count,slab_slot_capacity,"
        "slab_free_slots,slab_occupancy,quiescent_skips,objects_retraced,"
        "outsets_reused,mark_wall_ns,mark_steals,pool_batches,"
        "pool_tasks_run,pool_occupancy,retransmits,dup_suppressed,"
        "stale_incarnation_rejected,calls_parked,fd_suspicions,"
        "table_slot_reuses,table_slot_grows,table_slot_capacity,"
        "table_occupancy,transport_timesteps,transport_phases,"
        "transport_site_steps,transport_handoffs,transport_staged,"
        "transport_queue_peak,transport_queue_contention,"
        "transport_queue_overflows\n";
  for (const MetricsSample& s : samples_) {
    os << s.round << ',' << s.time << ',' << s.objects_stored << ','
       << s.objects_reclaimed << ',' << s.suspected_inrefs << ','
       << s.suspected_outrefs << ',' << s.garbage_flagged_inrefs << ','
       << s.messages_sent << ',' << s.wire_messages << ','
       << s.traces_started << ',' << s.traces_garbage << ',' << s.traces_live
       << ',' << s.local_traces << ',' << s.trace_wall_ns << ','
       << s.trace_objects_marked << ',' << s.trace_objects_per_sec << ','
       << s.slab_count << ',' << s.slab_slot_capacity << ','
       << s.slab_free_slots << ',' << s.slab_occupancy << ','
       << s.quiescent_skips << ',' << s.objects_retraced << ','
       << s.outsets_reused << ',' << s.mark_wall_ns << ',' << s.mark_steals
       << ',' << s.pool_batches << ',' << s.pool_tasks_run << ','
       << s.pool_occupancy << ',' << s.retransmits << ','
       << s.dup_suppressed << ',' << s.stale_incarnation_rejected << ','
       << s.calls_parked << ',' << s.fd_suspicions << ','
       << s.table_slot_reuses << ',' << s.table_slot_grows << ','
       << s.table_slot_capacity << ',' << s.table_occupancy << ','
       << s.transport_timesteps << ',' << s.transport_phases << ','
       << s.transport_site_steps << ',' << s.transport_handoffs << ','
       << s.transport_staged << ',' << s.transport_queue_peak << ','
       << s.transport_queue_contention << ','
       << s.transport_queue_overflows << '\n';
  }
  return os.str();
}

}  // namespace dgc
