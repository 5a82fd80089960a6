// Tunables for the collector and the simulated environment.
//
// Defaults follow the paper's guidance: the back threshold D2 = D + L where
// L is a conservatively estimated (large) cycle length (Section 4.3), and
// visiting a back trace bumps an ioref's threshold so live suspects stop
// generating traces while garbage retries periodically.
#pragma once

#include <cstdint>

#include "common/distance.h"

namespace dgc {

/// Simulated time, in abstract ticks. One mutator action or message hop costs
/// a few ticks; local traces are minutes apart in the paper, here hundreds of
/// ticks.
using SimTime = std::int64_t;

struct CollectorConfig {
  /// Suspicion threshold D (Section 3): iorefs with estimated distance > D
  /// are suspected; distance <= D is clean.
  Distance suspicion_threshold = 4;

  /// Conservative estimate L of the largest cycle length, in inter-site
  /// references. The initial back threshold is D2 = D + L.
  Distance estimated_cycle_length = 8;

  /// Increment applied to an ioref's back threshold each time a back trace
  /// visits it (Section 4.3), so live suspects eventually stop triggering.
  /// Zero turns that quieting off: a live suspect above D2 then starts a
  /// back trace after every local trace.
  Distance back_threshold_increment = 4;

  /// Initial back threshold D2 = suspicion_threshold + estimated_cycle_length
  /// (saturating: configuring either near infinity must not wrap D2 around
  /// to a threshold every suspect immediately exceeds).
  [[nodiscard]] Distance initial_back_threshold() const {
    return AddDistance(suspicion_threshold, estimated_cycle_length);
  }

  /// Simulated duration of a local trace. Zero models an atomic trace
  /// (Section 6.1); a positive value exercises the double-buffered back
  /// information of Section 6.2.
  SimTime local_trace_duration = 0;

  /// Timeout for a pending back-step call; on expiry the waiting frame
  /// assumes the answer is Live (Section 4.6). Zero disables timeouts —
  /// except when NetworkConfig::reliable_delivery is on, where System
  /// derives 20 × (latency + latency_jitter + batch_window + 1) instead:
  /// with retransmission a lost call is a latency event, not a permanent
  /// loss, so "no timeout" would let a trace strand forever behind the one
  /// message whose retransmit budget ran out. The factor 20 dominates the
  /// exponential-backoff retransmit schedule for the first few attempts, so
  /// a call only times out (spurious Live) once a loss is effectively
  /// unrecoverable.
  SimTime back_call_timeout = 0;

  /// How long a participant waits for a trace's final outcome before
  /// assuming Live and clearing its visited marks (Section 4.6). Checked
  /// lazily at each local trace. Zero disables expiry — except when
  /// NetworkConfig::reliable_delivery is on, where System derives
  /// 10 × back_call_timeout (after deriving back_call_timeout as above):
  /// the report phase waits on a whole trace, which spans many call
  /// round-trips.
  SimTime report_timeout = 0;

  /// Every this-many local traces, a site resends ALL outref distances in
  /// its update messages instead of only changed ones, so distance
  /// information lost to dropped messages or crashed sites recovers
  /// (Section 2 assumes fault-tolerant update messaging, cf. ML94). A lost
  /// *removal* is never resent (its outref is gone), so networks that drop
  /// messages need NetworkConfig::reliable_delivery for those.
  /// Zero disables refresh (changes only).
  std::uint64_t update_refresh_period = 4;

  /// When false, only local tracing runs (the baseline that leaks cycles,
  /// as in Figure 1 where f and g are never collected).
  bool enable_back_tracing = true;

  /// Graceful degradation under failures: when the network's failure
  /// detector (NetworkConfig::heartbeat_period) suspects the destination of
  /// a back trace's next remote step, the call is *parked* instead of being
  /// dispatched into the void — where it would burn a full
  /// back_call_timeout and yield a spurious Live verdict that bumps the
  /// suspect's back threshold and delays collection. Parked calls resume
  /// when the failure detector reports the peer healed; the waiting frame's
  /// call timeout is deferred while any child is parked (re-armed fresh on
  /// resume), so parking never converts into a timeout by itself. Inert
  /// unless the failure detector is enabled.
  bool park_on_suspected_failure = true;
};

/// Knobs for the socket transport (net/socket_world.h), which runs each site
/// as its own OS process: how long the coordinator waits on a site process,
/// how the supervisor restarts crashed ones, and whether sites snapshot.
/// All real-time values are wall-clock milliseconds — the one place the
/// otherwise simulated-time system touches real clocks.
struct SocketConfig {
  /// How long the coordinator waits for one site's StepReply before marking
  /// the process unresponsive (SIGSTOP'd, wedged, or dying). The site is
  /// then treated as down — the failure detector and park machinery take
  /// over — until its late reply arrives or the supervisor replaces it.
  int step_timeout_ms = 2000;

  /// How long Settle() keeps waiting, in real time, for pending supervisor
  /// restarts and owed replies from unresponsive sites after simulated work
  /// runs dry. Past the grace, Settle returns with the world as settled as
  /// it can get (parked traces then resolve via protocol timeouts).
  int settle_grace_ms = 10'000;

  /// Supervisor restart backoff: first delay, then doubling per consecutive
  /// failure up to the cap.
  int restart_backoff_initial_ms = 50;
  int restart_backoff_max_ms = 2'000;

  /// Restarts the supervisor will attempt per site before giving up and
  /// leaving the site permanently down (the heartbeat/park machinery then
  /// degrades gracefully, as for any dark peer). Zero = never restart.
  int max_restarts = 8;

  /// When true (default) a site process snapshots its durable state (heap
  /// image, ref tables, back info, incarnation) after every step that
  /// changed it, write-temp-then-rename, so a kill -9 loses at most the
  /// in-flight step — which the insert-resend/refresh machinery repairs.
  /// When false a restarted site comes back empty, as Site::CrashRestart
  /// models.
  bool snapshot_each_step = true;
};

struct NetworkConfig {
  /// Fixed transit latency plus uniform jitter in [0, latency_jitter].
  SimTime latency = 5;
  SimTime latency_jitter = 0;

  /// Probability that a message is dropped in transit (timeouts recover).
  double drop_probability = 0.0;

  /// Piggybacking (Section 4.6: protocol messages "are small and can be
  /// piggybacked"): when positive, messages on a channel are held up to this
  /// long and flushed together as one wire message. Zero disables batching
  /// (every payload is its own wire message).
  SimTime batch_window = 0;

  /// Reliable channels: per-channel sequence numbers, cumulative acks,
  /// retransmission with exponential backoff + jitter and bounded attempts
  /// (the first after 2 × (latency + latency_jitter) + batch_window + 1,
  /// just past one worst-case round trip, so an ack in flight usually beats
  /// the timer), and duplicate suppression on delivery. Loss injected by
  /// drop_probability (or a chaos plan's drop bursts) then costs latency
  /// instead of a permanent drop; the per-channel FIFO order of R1 is
  /// preserved by delivering in sequence-number order at the receiver.
  /// Default off keeps the unreliable datagram transport bit-for-bit.
  bool reliable_delivery = false;

  /// Transmission attempts per wire message before it is abandoned as
  /// undeliverable (counted as dropped; the protocol timeouts then recover
  /// exactly as for an unreliable loss). Bounded so a crashed peer cannot
  /// accumulate retransmit state forever.
  int max_retransmit_attempts = 8;

  /// Heartbeat failure detector period; zero disables detection. The
  /// simulation models the detector analytically: each site is assumed to
  /// heartbeat every peer at this period, so an outage is "suspected" by
  /// everyone once it has lasted heartbeat_timeout, and "healed" one period
  /// plus a round trip after connectivity returns — without flooding the
  /// event queue with literal heartbeat messages (which would keep the
  /// drain-to-idle simulation from ever going idle).
  SimTime heartbeat_period = 0;

  /// Outage duration after which a down site or severed link is suspected.
  /// Zero derives 4 × heartbeat_period (four missed heartbeats).
  SimTime heartbeat_timeout = 0;

  /// Knobs for the socket transport (ignored by System).
  SocketConfig socket;
};

/// Derives the reliable-delivery protocol timeouts exactly as System does
/// (see CollectorConfig::back_call_timeout): with retransmission a lost call
/// is a latency event, so "no timeout" would strand a trace forever behind
/// the one message whose retransmit budget ran out. Shared so SocketWorld's
/// coordinator derives the same values System would for the same configs —
/// a precondition for the sim-vs-socket differential.
inline void DeriveReliabilityTimeouts(CollectorConfig& collector,
                                      const NetworkConfig& net) {
  if (!net.reliable_delivery) return;
  const SimTime unit = net.latency + net.latency_jitter + net.batch_window + 1;
  if (collector.back_call_timeout == 0) {
    collector.back_call_timeout = 20 * unit;
  }
  if (collector.report_timeout == 0) {
    collector.report_timeout = 10 * collector.back_call_timeout;
  }
}

}  // namespace dgc
