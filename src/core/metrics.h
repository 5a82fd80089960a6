// Time-series metrics: per-round snapshots of the collector's global state,
// exportable as CSV — the raw material for the paper-style series plots
// (objects over rounds, suspicion ripening, message traffic, trace outcomes).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/config.h"
#include "core/latency_reservoir.h"
#include "core/system.h"

namespace dgc {

struct MetricsSample {
  std::size_t round = 0;
  SimTime time = 0;
  std::size_t objects_stored = 0;
  std::uint64_t objects_reclaimed = 0;
  std::size_t suspected_inrefs = 0;
  std::size_t suspected_outrefs = 0;
  std::size_t garbage_flagged_inrefs = 0;
  std::uint64_t messages_sent = 0;   // cumulative logical
  std::uint64_t wire_messages = 0;   // cumulative physical
  std::uint64_t traces_started = 0;  // cumulative
  std::uint64_t traces_garbage = 0;
  std::uint64_t traces_live = 0;
  // Local-trace throughput (cumulative real time; never simulated time).
  std::uint64_t local_traces = 0;
  std::uint64_t trace_wall_ns = 0;
  std::uint64_t trace_objects_marked = 0;
  double trace_objects_per_sec = 0.0;
  // Slab-store occupancy across all heaps at capture time.
  std::size_t slab_count = 0;
  std::size_t slab_slot_capacity = 0;
  std::size_t slab_free_slots = 0;
  double slab_occupancy = 1.0;
  // Incremental local traces (cumulative across sites; zero with the knob
  // off).
  std::uint64_t quiescent_skips = 0;
  std::uint64_t objects_retraced = 0;
  std::uint64_t outsets_reused = 0;
  // Intra-site parallel marking (cumulative; zero with mark_threads == 1)
  // and the shared worker pool's lifetime accounting.
  std::uint64_t mark_wall_ns = 0;
  std::uint64_t mark_steals = 0;
  std::uint64_t pool_batches = 0;
  std::uint64_t pool_tasks_run = 0;
  double pool_occupancy = 0.0;  // share of tasks run by pool threads
  // Fault tolerance (cumulative; zero with reliable delivery / the failure
  // detector off).
  std::uint64_t retransmits = 0;
  std::uint64_t dup_suppressed = 0;
  std::uint64_t stale_incarnation_rejected = 0;
  std::uint64_t calls_parked = 0;
  std::uint64_t fd_suspicions = 0;
  // Flat ref-table slot churn across all sites (cumulative reuses/grows;
  // capacity and occupancy at capture time).
  std::uint64_t table_slot_reuses = 0;
  std::uint64_t table_slot_grows = 0;
  std::size_t table_slot_capacity = 0;
  double table_occupancy = 1.0;
  // Threaded-transport engine accounting (cumulative; all zero under the
  // sim transport).
  std::uint64_t transport_timesteps = 0;
  std::uint64_t transport_phases = 0;     // parallel phases run
  std::uint64_t transport_site_steps = 0;
  std::uint64_t transport_handoffs = 0;   // deliveries routed into inboxes
  std::uint64_t transport_staged = 0;     // site-thread sends replayed
  std::uint64_t transport_queue_peak = 0;
  std::uint64_t transport_queue_contention = 0;
  std::uint64_t transport_queue_overflows = 0;  // pushes past soft capacity
};

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
