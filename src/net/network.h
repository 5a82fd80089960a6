// Simulated network connecting the sites, and the in-process Transport
// (net/transport.h): System hands it to every Site, which registers, sends
// and runs its timers through it. A socket coordinator owns one too, which
// its site processes' staged sends enter.
//
// Guarantees the paper's delivery assumption R1 — in-order delivery between
// any pair of sites — by each channel's last delivery time: a transmission
// is never delivered before the one sent ahead of it on its channel, even
// under latency jitter. Supports the fault injection the paper's locality
// argument needs (crashed sites, severed links, message drops) and keeps
// per-payload-type counters so benches can report message complexity (e.g.
// the 2E + P bound of Section 4.6).
//
// State lives in two tables indexed by SiteId (sites register densely from
// 0): one record per site (handler, incarnation, down flag and fault
// timeline, recovery listener) and one per ordered channel (the last
// delivery time; then, allocated on first use, the open batch, the link's
// down flag and timeline where from <= to, and the reliable state).
//
// Self-addressed messages model intra-site asynchrony (e.g. the local steps
// of a back trace); they are delivered on the next scheduler tick and are
// *not* counted as inter-site traffic.
//
// Two opt-in fault-tolerance layers (both inert by default, preserving the
// unreliable datagram transport bit-for-bit):
//
//   * reliable channels (NetworkConfig::reliable_delivery): every wire
//     message carries a per-channel sequence number and the endpoints'
//     incarnation numbers; the receiver delivers strictly in sequence order
//     (stashing out-of-order arrivals, suppressing duplicates) and returns
//     cumulative acks, while the sender retransmits unacked messages with
//     exponential backoff + jitter up to a bounded attempt count. Every
//     transmission still keeps R1 by its channel's last delivery time. A
//     site restart bumps its incarnation (Site::CrashRestart calls
//     NoteSiteRestarted), so stale pre-crash traffic is rejected at arrival
//     instead of corrupting the scrubbed post-restart state;
//
//   * a failure detector (NetworkConfig::heartbeat_period): modeled
//     analytically from the injected fault timeline rather than with
//     literal heartbeat messages (perpetual timers would keep the
//     drain-to-idle simulation from going idle). IsPeerSuspected answers
//     what a real heartbeat detector would know: an outage is visible once
//     it has lasted heartbeat_timeout, and recovery is visible one
//     heartbeat period plus a round trip after heal. Per-site recovery
//     listeners fire at that moment so parked work (see
//     CollectorConfig::park_on_suspected_failure) can resume.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "common/config.h"
#include "common/counters.h"
#include "common/rng.h"
#include "net/messages.h"
#include "net/transport.h"
#include "sim/fault_plan.h"
#include "sim/scheduler.h"

namespace dgc {

namespace detail {
template <typename T, typename Variant>
struct VariantIndex;

template <typename T, typename... Ts>
struct VariantIndex<T, std::variant<Ts...>> {
  static constexpr std::size_t value = [] {
    constexpr bool matches[] = {std::is_same_v<T, Ts>...};
    for (std::size_t i = 0; i < sizeof...(Ts); ++i) {
      if (matches[i]) return i;
    }
    return sizeof...(Ts);
  }();
  static_assert(value < sizeof...(Ts), "type not in variant");
};
}  // namespace detail

struct NetworkStats {
  /// Logical messages (protocol payloads), independent of batching.
  std::uint64_t inter_site_sent = 0;
  std::uint64_t inter_site_delivered = 0;
  std::uint64_t dropped = 0;          // payloads permanently lost
  std::uint64_t self_deliveries = 0;  // intra-site, not counted as traffic
  /// Bytes of every payload as if each shipped alone: one frame header
  /// (length prefix and type byte) plus its envelope as the wire codec
  /// encodes it, whatever the batching.
  std::uint64_t logical_bytes = 0;
  /// Physical messages on the wire: equals inter_site_sent without batching;
  /// with piggybacking, several payloads share one wire message. With
  /// reliable delivery, retransmissions and acks count here too.
  std::uint64_t wire_messages = 0;
  /// One frame header per wire message plus its envelopes' encoded bytes;
  /// an ack is a bare frame header.
  std::uint64_t wire_bytes = 0;
  // Reliable-channel accounting (all zero while reliable_delivery is off).
  std::uint64_t retransmits = 0;          // wire messages sent again
  std::uint64_t retransmits_exhausted = 0;  // abandoned after max attempts
  std::uint64_t transmissions_lost = 0;   // attempts lost (recoverable)
  std::uint64_t dup_suppressed = 0;       // duplicate wire msgs discarded
  std::uint64_t acks_sent = 0;            // cumulative-ack control frames
  std::uint64_t stale_incarnation_rejected = 0;  // pre-restart msgs refused
  // Failure-detector accounting (zero while heartbeat_period is 0).
  std::uint64_t fd_suspicions = 0;  // outages long enough to be detected
  std::uint64_t fd_recoveries = 0;  // heal notifications delivered
  std::array<std::uint64_t, kPayloadKinds> per_kind{};

  /// Count of inter-site messages of payload type T, e.g.
  /// stats.count_of<BackLocalCallMsg>().
  template <typename T>
  [[nodiscard]] std::uint64_t count_of() const {
    return per_kind[detail::VariantIndex<T, Payload>::value];
  }
};

auto Counters(Is<NetworkStats> auto& s) {
  return std::tuple{
      Counter{"inter_site_sent", s.inter_site_sent},
      Counter{"inter_site_delivered", s.inter_site_delivered},
      Counter{"dropped", s.dropped},
      Counter{"self_deliveries", s.self_deliveries},
      Counter{"logical_bytes", s.logical_bytes},
      Counter{"wire_messages", s.wire_messages},
      Counter{"wire_bytes", s.wire_bytes},
      Counter{"retransmits", s.retransmits},
      Counter{"retransmits_exhausted", s.retransmits_exhausted},
      Counter{"transmissions_lost", s.transmissions_lost},
      Counter{"dup_suppressed", s.dup_suppressed},
      Counter{"acks_sent", s.acks_sent},
      Counter{"stale_incarnation_rejected", s.stale_incarnation_rejected},
      Counter{"fd_suspicions", s.fd_suspicions},
      Counter{"fd_recoveries", s.fd_recoveries}};
}
static_assert(ListsEveryMember<NetworkStats>(sizeof(NetworkStats::per_kind)));

class Network final : public Transport {
 public:
  /// Delivery interposer (see set_dispatcher).
  using Dispatcher = std::function<void(Envelope&&)>;

  Network(Scheduler& scheduler, NetworkConfig config, Rng rng);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// The one scheduler: deliveries, retransmits and the sites' timers.
  [[nodiscard]] Scheduler& scheduler() override { return scheduler_; }

  /// Registers the message handler for a site. Must be called once per site
  /// before any message from or to it is sent; sites register densely from
  /// 0, and each one grows both tables by a row (and the channel table by a
  /// column).
  void RegisterSite(SiteId site, Handler handler) override;

  /// Sends a message between two registered sites. Delivery is
  /// asynchronous; per-channel FIFO order is preserved. Messages to or from
  /// a down site, or across a severed link, are silently dropped (the
  /// protocols recover via timeouts) — unless reliable delivery is on, in
  /// which case they are retransmitted until the attempt budget runs out.
  void Send(SiteId from, SiteId to, Payload payload) override;

  /// Crashes or restores a registered site: while down, all its traffic is
  /// dropped. Restoring, when the failure detector is on, schedules the
  /// recovery notification.
  void SetSiteDown(SiteId site, bool down);
  [[nodiscard]] bool IsSiteDown(SiteId site) const;

  /// Severs or restores the (bidirectional) link between two registered
  /// sites. A heal notifies a's listener, then b's.
  void SetLinkDown(SiteId a, SiteId b, bool down);
  [[nodiscard]] bool IsLinkDown(SiteId a, SiteId b) const;

  // --- Incarnations and restart ---------------------------------------

  /// Records that `site` crashed and restarted: bumps its incarnation so
  /// pre-crash wire traffic is rejected at arrival, and (with reliable
  /// delivery) dead-letters all transport state on channels touching the
  /// site, its row and its column of the channel table — the restarted
  /// process shares no connection state with its previous life.
  void NoteSiteRestarted(SiteId site) override;
  /// 0 for a site that never restarted, and for an unregistered id.
  [[nodiscard]] std::uint32_t incarnation(SiteId site) const;

  // --- Failure detection ----------------------------------------------

  [[nodiscard]] bool failure_detection_enabled() const override {
    return config_.heartbeat_period > 0;
  }

  /// What `observer`'s heartbeat failure detector currently believes about
  /// `peer`: true while an outage (site down, or the observer-peer link
  /// severed) has lasted at least the heartbeat timeout and for one
  /// heartbeat period + round trip after it heals.
  [[nodiscard]] bool IsPeerSuspected(SiteId observer,
                                     SiteId peer) const override;

  /// Installs registered `observer`'s recovery listener (at most one per
  /// site). Listeners must not be installed from inside a notification.
  void SetRecoveryListener(SiteId observer,
                           RecoveryListener listener) override;

  /// Interposes on final delivery: when set, every envelope that would be
  /// handed to its destination handler goes to `dispatcher` instead (after
  /// all transport processing — FIFO order, reliable reassembly,
  /// incarnation checks, stats). SocketTransport uses this to collect
  /// deliveries for shipment to site processes; null (default) calls the
  /// registered handler directly.
  void set_dispatcher(Dispatcher dispatcher) {
    dispatcher_ = std::move(dispatcher);
  }

  // --- Chaos injection ------------------------------------------------

  /// Hooks that apply a FaultPlan's network faults to this network: site
  /// outages, link flaps, drop bursts (overriding the configured drop
  /// probability) and latency spikes (extra latency on every transmission).
  /// Overlapping bursts or spikes stack: the override holds until the last
  /// open window closes (the strongest recent value wins meanwhile). The
  /// caller adds its own crash or process hooks before scheduling the plan.
  [[nodiscard]] FaultHooks PlanHooks();

  [[nodiscard]] const NetworkStats& stats() const { return stats_; }
  void ResetStats() { stats_ = NetworkStats{}; }

  /// Number of payloads handed to the scheduler but not yet delivered (with
  /// reliable delivery: not yet known-delivered via ack, nor abandoned).
  [[nodiscard]] std::uint64_t in_flight() const { return in_flight_; }

  /// Channels currently holding a batching window open.
  [[nodiscard]] std::size_t pending_batch_channels() const;
  /// Wire messages awaiting acknowledgement across all reliable channels.
  [[nodiscard]] std::size_t unacked_wire_messages() const;
  /// Installed recovery listeners (a restart dead-letters the restarted
  /// site's listener; the new incarnation re-registers).
  [[nodiscard]] std::size_t recovery_listener_entries() const;
  /// Batch buffers parked in the envelope pool, and how many ShipBatch
  /// buffers were served from it instead of a fresh allocation.
  [[nodiscard]] std::size_t batch_pool_size() const {
    return batch_pool_.size();
  }
  [[nodiscard]] std::uint64_t batch_pool_hits() const {
    return batch_pool_hits_;
  }

 private:
  void Deliver(Envelope envelope);
  /// Hands one envelope to its destination handler (shared tail of the
  /// unreliable and reliable delivery paths).
  void Dispatch(Envelope envelope);

  /// Ships one wire message (a batch of >= 1 payloads) on a channel:
  /// applies faults/loss once, schedules in-order delivery of the contents.
  /// With reliable delivery, enrolls the batch in the channel's retransmit
  /// queue instead.
  void ShipBatch(SiteId from, SiteId to, std::vector<Envelope> batch);
  void FlushChannel(SiteId from, SiteId to);
  /// Draws one transmission's latency and keeps R1: the delivery time is
  /// no earlier than the channel's last one, which it then becomes.
  [[nodiscard]] SimTime NextDeliveryTime(SiteId from, SiteId to);

  // --- Reliable-channel internals -------------------------------------

  /// One wire message awaiting acknowledgement.
  struct SenderEntry {
    std::uint64_t seq = 0;
    std::vector<Envelope> envelopes;
    std::uint32_t from_inc = 0;  // endpoint incarnations when first sent
    std::uint32_t to_inc = 0;
    int attempts = 0;  // transmissions so far
  };
  /// Both ends of one reliable channel: the sender's retransmit queue and
  /// the receiver's reassembly state.
  struct ReliableChannel {
    std::uint64_t next_seq = 0;
    std::deque<SenderEntry> unacked;  // ordered by seq
    bool timer_armed = false;
    std::uint64_t next_expected = 0;
    /// Out-of-order arrivals parked until the gap fills (map: delivered in
    /// seq order).
    std::map<std::uint64_t, std::vector<Envelope>> stashed;
  };

  [[nodiscard]] SimTime RetransmitBase() const;
  [[nodiscard]] SimTime DrawLatency();
  [[nodiscard]] bool TransmissionLost(SiteId from, SiteId to);
  [[nodiscard]] double effective_drop_probability() const {
    return drop_override_ >= 0.0 ? drop_override_ : config_.drop_probability;
  }

  /// The channel's reliable state, allocated on first use.
  [[nodiscard]] ReliableChannel& Reliable(SiteId from, SiteId to);
  /// One physical transmission of a sender entry (first send or retransmit):
  /// applies faults/loss, keeps R1, and schedules OnWireArrival.
  void TransmitWire(SiteId from, SiteId to, SenderEntry& entry);
  /// Retires a channel's unacked entries as dropped and resets both its
  /// ends (a restart of either endpoint).
  void ResetReliable(SiteId from, SiteId to);
  void ArmRetransmitTimer(SiteId from, SiteId to);
  /// `base_seq` is the sender's oldest outstanding seq at transmission
  /// time: every seq below it was either acked or abandoned, so the
  /// receiver may skip past gaps below it (an abandoned wire message must
  /// not wedge the channel forever).
  void OnWireArrival(SiteId from, SiteId to, std::uint64_t seq,
                     std::uint64_t base_seq, std::uint32_t from_inc,
                     std::uint32_t to_inc, std::vector<Envelope> envelopes);
  /// Delivers stashed in-order prefixes below `base_seq` and skips the
  /// abandoned gaps, advancing next_expected to at least base_seq.
  void AdvanceReceiverTo(ReliableChannel& channel, std::uint64_t base_seq);
  /// Sends the receiver's cumulative ack for channel (from -> to) back to
  /// the sender. Acks are unreliable control frames: a lost ack is repaired
  /// by the one after the next (re)transmission.
  void SendAck(SiteId from, SiteId to);
  void OnAckArrival(SiteId from, SiteId to, std::uint64_t cumulative,
                    std::uint32_t from_inc, std::uint32_t to_inc);
  /// Retires a sender entry's payloads from the in-flight account and
  /// returns its batch buffer to the pool; `delivered` false means the
  /// payloads are permanently lost (counted dropped).
  void RetireEntry(SenderEntry& entry, bool delivered);

  // --- Envelope batch-buffer pool -------------------------------------

  /// Hands out a cleared batch buffer, reusing a retired one's allocation
  /// when available (delivery-rate allocations otherwise dominate the
  /// per-message cost at scale).
  [[nodiscard]] std::vector<Envelope> AcquireBatchBuffer();
  void ReleaseBatchBuffer(std::vector<Envelope>&& buffer);

  // --- Failure-detector internals -------------------------------------

  /// Ground-truth fault timeline for one site or link, from which the
  /// analytic heartbeat detector derives suspicion on demand. `down` is the
  /// site's or link's down flag, whether or not the detector is on.
  struct FaultRecord {
    /// The last outage's start and, once it is over, its end.
    SimTime down_since = 0;
    SimTime healed_at = -1;
    bool down = false;
    /// The site restarted (incarnation bump) while this outage was open;
    /// carried into the recovery notification so observers learn the peer
    /// they see again is a replacement, not the process they lost.
    bool restarted_during_outage = false;
  };
  [[nodiscard]] SimTime SuspectAfter() const {
    return config_.heartbeat_timeout > 0 ? config_.heartbeat_timeout
                                         : 4 * config_.heartbeat_period;
  }
  [[nodiscard]] SimTime RecoverDelay() const {
    return config_.heartbeat_period +
           2 * (config_.latency + config_.latency_jitter);
  }
  [[nodiscard]] bool RecordSuspected(const FaultRecord& record,
                                     SimTime now) const;
  /// Opens or heals an outage of a site (b == kInvalidSite) or of the link
  /// {a, b}. A heal the failure detector saw schedules the recovery
  /// notification.
  void SetDown(FaultRecord& record, bool down, SiteId a, SiteId b);
  void NotifyRecovered(SiteId a, SiteId b, bool restarted);

  /// One registered site.
  struct SiteRecord {
    Handler handler;  // null: the id is not registered
    std::uint32_t incarnation = 0;
    FaultRecord fault;
    /// Null until the site subscribes; a restart clears it.
    RecoveryListener listener;
  };
  /// What a channel holds besides R1's clock, allocated when batching, a
  /// link fault or reliable delivery first uses the channel. Out of line,
  /// the default network's table is 16 bytes a channel: inline, the
  /// 100 x 100 table raised scale's peak RSS by about 1 MiB.
  struct ChannelExtras {
    /// Payloads waiting for the batch window to close.
    std::vector<Envelope> batch;
    /// The link {from, to}'s faults, kept where from <= to.
    FaultRecord link;
    /// Allocated when reliable delivery first uses the channel.
    std::unique_ptr<ReliableChannel> reliable;
  };
  /// One ordered channel (from -> to).
  struct Channel {
    /// R1: the latest delivery time scheduled on this channel.
    SimTime last_delivery = 0;
    std::unique_ptr<ChannelExtras> extras;
  };

  [[nodiscard]] bool Registered(SiteId site) const {
    return site < sites_.size() && sites_[site].handler != nullptr;
  }
  [[nodiscard]] Channel& ChannelAt(SiteId from, SiteId to) {
    return channels_[from * sites_.size() + to];
  }
  [[nodiscard]] const Channel& ChannelAt(SiteId from, SiteId to) const {
    return channels_[from * sites_.size() + to];
  }
  /// The channel's extras, allocated on first use.
  [[nodiscard]] ChannelExtras& Extras(SiteId from, SiteId to);
  /// The link {a, b}'s faults; a link that never faulted has a record
  /// that was never down.
  [[nodiscard]] const FaultRecord& Link(SiteId a, SiteId b) const;

  Scheduler& scheduler_;
  NetworkConfig config_;
  Rng rng_;
  /// Indexed by SiteId. Only RegisterSite grows them, so a reference into
  /// either survives a delivery's handler and its sends.
  std::vector<SiteRecord> sites_;
  /// sites_.size() squared records, channel (from, to) at ChannelAt.
  std::vector<Channel> channels_;
  /// When set, Dispatch routes here instead of to the site's handler (see
  /// set_dispatcher).
  Dispatcher dispatcher_;
  /// Retired batch buffers awaiting reuse (capacity kept, contents cleared).
  std::vector<std::vector<Envelope>> batch_pool_;
  std::uint64_t batch_pool_hits_ = 0;
  // Chaos overrides set by PlanHooks (negative / zero = none).
  double drop_override_ = -1.0;
  SimTime extra_latency_ = 0;
  NetworkStats stats_;
  std::uint64_t in_flight_ = 0;
};

}  // namespace dgc
