#include "net/network.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/check.h"
#include "common/logging.h"
#include "net/wire.h"

namespace dgc {

namespace {

/// A wire message's frame header: the length prefix and the type byte.
constexpr std::size_t kFrameBytes = wire::kFrameHeaderBytes + 1;

std::size_t WireMessageBytes(const std::vector<Envelope>& batch) {
  std::size_t bytes = kFrameBytes;
  for (const Envelope& envelope : batch) bytes += wire::EncodedSize(envelope);
  return bytes;
}

}  // namespace

Network::Network(Scheduler& scheduler, NetworkConfig config, Rng rng)
    : scheduler_(scheduler), config_(config), rng_(rng) {
  DGC_CHECK(config_.latency >= 0);
  DGC_CHECK(config_.latency_jitter >= 0);
  DGC_CHECK(config_.drop_probability >= 0.0 && config_.drop_probability <= 1.0);
  DGC_CHECK(config_.max_retransmit_attempts >= 1);
  DGC_CHECK(config_.heartbeat_period >= 0);
  DGC_CHECK(config_.heartbeat_timeout >= 0);
}

void Network::RegisterSite(SiteId site, Handler handler) {
  DGC_CHECK(handler != nullptr);
  if (sites_.size() <= site) {
    // Lay the channel table out again for the new site count, exactly
    // sized: the records move, their extras stay where they are.
    const std::size_t old_sites = sites_.size();
    const std::size_t sites = static_cast<std::size_t>(site) + 1;
    std::vector<Channel> channels(sites * sites);
    for (std::size_t from = 0; from < old_sites; ++from) {
      std::move(channels_.begin() + from * old_sites,
                channels_.begin() + (from + 1) * old_sites,
                channels.begin() + from * sites);
    }
    channels_ = std::move(channels);
    sites_.resize(sites);
  }
  DGC_CHECK_MSG(sites_[site].handler == nullptr,
                "site " << site << " registered twice");
  sites_[site].handler = std::move(handler);
}

void Network::Send(SiteId from, SiteId to, Payload payload) {
  DGC_CHECK_MSG(Registered(from) && Registered(to),
                "send between unregistered sites s" << from << "->s" << to);

  Envelope envelope{from, to, std::move(payload)};

  if (from == to) {
    // Intra-site asynchrony: delivered on the next tick, immune to faults,
    // not counted as network traffic.
    ++stats_.self_deliveries;
    ++in_flight_;
    scheduler_.After(0, [this, envelope = std::move(envelope)]() mutable {
      Deliver(std::move(envelope));
    });
    return;
  }

  ++stats_.inter_site_sent;
  ++stats_.per_kind[envelope.payload.index()];
  stats_.logical_bytes += kFrameBytes + wire::EncodedSize(envelope);
  ++in_flight_;  // until delivered or dropped (including while batched)

  if (config_.batch_window > 0) {
    // Piggybacking: hold the payload briefly; everything queued on this
    // channel ships as one wire message when the window closes.
    std::vector<Envelope>& batch = Extras(from, to).batch;
    if (batch.empty()) {
      batch = AcquireBatchBuffer();
      scheduler_.After(config_.batch_window,
                       [this, from, to] { FlushChannel(from, to); });
    }
    batch.push_back(std::move(envelope));
    return;
  }
  std::vector<Envelope> batch = AcquireBatchBuffer();
  batch.push_back(std::move(envelope));
  ShipBatch(from, to, std::move(batch));
}

void Network::FlushChannel(SiteId from, SiteId to) {
  // The channel's next payload opens a new window with a pooled buffer.
  ShipBatch(from, to, std::exchange(Extras(from, to).batch, {}));
}

std::vector<Envelope> Network::AcquireBatchBuffer() {
  if (batch_pool_.empty()) return {};
  std::vector<Envelope> buffer = std::move(batch_pool_.back());
  batch_pool_.pop_back();
  ++batch_pool_hits_;
  return buffer;
}

void Network::ReleaseBatchBuffer(std::vector<Envelope>&& buffer) {
  buffer.clear();
  // Bounded: past this the extra buffers' allocations are not worth keeping.
  if (batch_pool_.size() < 1024) batch_pool_.push_back(std::move(buffer));
}

SimTime Network::DrawLatency() {
  SimTime latency = config_.latency + extra_latency_;
  if (config_.latency_jitter > 0) {
    latency += static_cast<SimTime>(
        rng_.NextBelow(static_cast<std::uint64_t>(config_.latency_jitter) + 1));
  }
  return latency;
}

bool Network::TransmissionLost(SiteId from, SiteId to) {
  // Faults and loss hit the wire message as a whole.
  const bool faulted =
      IsSiteDown(from) || IsSiteDown(to) || Link(from, to).down;
  const double drop = effective_drop_probability();
  return faulted || (drop > 0.0 && rng_.NextBool(drop));
}

void Network::ShipBatch(SiteId from, SiteId to, std::vector<Envelope> batch) {
  DGC_CHECK(!batch.empty());
  ++stats_.wire_messages;
  stats_.wire_bytes += WireMessageBytes(batch);

  if (config_.reliable_delivery) {
    // Enroll in the channel's retransmit queue; the entry is retired by a
    // cumulative ack (delivered), attempt exhaustion or an incarnation
    // purge (dropped).
    ReliableChannel& channel = Reliable(from, to);
    channel.unacked.push_back(SenderEntry{channel.next_seq++, std::move(batch),
                                          incarnation(from), incarnation(to),
                                          0});
    TransmitWire(from, to, channel.unacked.back());
    ArmRetransmitTimer(from, to);
    return;
  }

  if (TransmissionLost(from, to)) {
    stats_.dropped += batch.size();
    DGC_CHECK(in_flight_ >= batch.size());
    in_flight_ -= batch.size();
    DGC_LOG_TRACE("net: drop batch of " << batch.size() << " s" << from
                                        << "->s" << to);
    ReleaseBatchBuffer(std::move(batch));
    return;
  }

  const SimTime deliver_at = NextDeliveryTime(from, to);
  scheduler_.At(deliver_at, [this, batch = std::move(batch)]() mutable {
    for (Envelope& envelope : batch) {
      Deliver(std::move(envelope));
    }
    ReleaseBatchBuffer(std::move(batch));
  });
}

SimTime Network::NextDeliveryTime(SiteId from, SiteId to) {
  // Per-channel FIFO order: assumption R1 of Section 6.4.
  SimTime& last = ChannelAt(from, to).last_delivery;
  last = std::max(scheduler_.now() + DrawLatency(), last);
  return last;
}

// --- Reliable channels -----------------------------------------------------

SimTime Network::RetransmitBase() const {
  // Just past one worst-case round trip: an ack already in flight usually
  // beats the timer, so a healthy channel rarely retransmits.
  return 2 * (config_.latency + config_.latency_jitter) +
         config_.batch_window + 1;
}

Network::ChannelExtras& Network::Extras(SiteId from, SiteId to) {
  std::unique_ptr<ChannelExtras>& extras = ChannelAt(from, to).extras;
  if (extras == nullptr) extras = std::make_unique<ChannelExtras>();
  return *extras;
}

const Network::FaultRecord& Network::Link(SiteId a, SiteId b) const {
  static constexpr FaultRecord kNeverFaulted{};
  const ChannelExtras* extras =
      ChannelAt(std::min(a, b), std::max(a, b)).extras.get();
  return extras != nullptr ? extras->link : kNeverFaulted;
}

Network::ReliableChannel& Network::Reliable(SiteId from, SiteId to) {
  std::unique_ptr<ReliableChannel>& channel = Extras(from, to).reliable;
  if (channel == nullptr) channel = std::make_unique<ReliableChannel>();
  return *channel;
}

void Network::TransmitWire(SiteId from, SiteId to, SenderEntry& entry) {
  ++entry.attempts;
  if (entry.attempts > 1) {
    ++stats_.retransmits;
    ++stats_.wire_messages;  // first attempt was counted by ShipBatch
    stats_.wire_bytes += WireMessageBytes(entry.envelopes);
  }
  if (TransmissionLost(from, to)) {
    // Recoverable: the retransmit timer covers it.
    ++stats_.transmissions_lost;
    DGC_LOG_TRACE("net: lose transmission seq " << entry.seq << " s" << from
                                                << "->s" << to << " (attempt "
                                                << entry.attempts << ")");
    return;
  }
  // R1 holds for every transmission; sequence numbers then restore order
  // across retransmissions.
  const SimTime deliver_at = NextDeliveryTime(from, to);
  // Oldest outstanding seq at transmission time (`entry` is outstanding):
  // everything below it is delivered or abandoned, so the receiver may skip
  // past gaps below it (otherwise one exhausted retransmit budget wedges the
  // channel forever).
  const std::uint64_t base_seq = Reliable(from, to).unacked.front().seq;
  scheduler_.At(deliver_at,
                [this, from, to, seq = entry.seq, base_seq,
                 from_inc = entry.from_inc, to_inc = entry.to_inc,
                 envelopes = entry.envelopes]() mutable {
                  OnWireArrival(from, to, seq, base_seq, from_inc, to_inc,
                                std::move(envelopes));
                });
}

void Network::ArmRetransmitTimer(SiteId from, SiteId to) {
  ReliableChannel& channel = Reliable(from, to);
  if (channel.timer_armed || channel.unacked.empty()) return;
  channel.timer_armed = true;
  // Exponential backoff on the oldest entry's attempt count, plus
  // deterministic jitter so colliding channels desynchronize.
  const int attempts = channel.unacked.front().attempts;
  const int shift = std::min(attempts > 0 ? attempts - 1 : 0, 10);
  SimTime delay = RetransmitBase() << shift;
  delay += static_cast<SimTime>(
      rng_.NextBelow(static_cast<std::uint64_t>(delay / 4) + 1));
  scheduler_.After(delay, [this, from, to, from_inc = incarnation(from),
                           to_inc = incarnation(to)] {
    // A restart of either endpoint, the only reset of a channel, bumps its
    // incarnation: this timer then belongs to the channel's past life.
    if (incarnation(from) != from_inc || incarnation(to) != to_inc) return;
    ReliableChannel& ch = Reliable(from, to);
    ch.timer_armed = false;
    // Abandon entries out of attempts (permanent drop: the protocol
    // timeouts recover exactly as for an unreliable loss). The front is
    // always the most-attempted entry, so popping from the front suffices.
    while (!ch.unacked.empty() &&
           ch.unacked.front().attempts >= config_.max_retransmit_attempts) {
      ++stats_.retransmits_exhausted;
      RetireEntry(ch.unacked.front(), /*delivered=*/false);
      ch.unacked.pop_front();
    }
    for (SenderEntry& entry : ch.unacked) {
      TransmitWire(from, to, entry);
    }
    ArmRetransmitTimer(from, to);
  });
}

void Network::AdvanceReceiverTo(ReliableChannel& channel,
                                std::uint64_t base_seq) {
  // The sender vouches that every seq below base_seq is delivered or
  // abandoned. Deliver any stashed in-order messages below it, skip the
  // abandoned gaps, and move next_expected up so the channel cannot wait
  // forever for a wire message nobody will retransmit.
  while (channel.next_expected < base_seq) {
    const auto next = channel.stashed.begin();
    if (next == channel.stashed.end() || next->first >= base_seq) {
      channel.next_expected = base_seq;
      return;
    }
    channel.next_expected = next->first + 1;
    std::vector<Envelope> envelopes = std::move(next->second);
    channel.stashed.erase(next);
    for (Envelope& envelope : envelopes) {
      ++stats_.inter_site_delivered;
      Dispatch(std::move(envelope));
    }
  }
}

void Network::OnWireArrival(SiteId from, SiteId to, std::uint64_t seq,
                            std::uint64_t base_seq, std::uint32_t from_inc,
                            std::uint32_t to_inc,
                            std::vector<Envelope> envelopes) {
  if (IsSiteDown(to)) {
    // Arrived at a crashed receiver: lost, but the sender entry survives and
    // retransmission resumes delivery after the restart (or the incarnation
    // purge dead-letters it).
    ++stats_.transmissions_lost;
    return;
  }
  if (from_inc != incarnation(from) || to_inc != incarnation(to)) {
    // Pre-restart traffic addressed to (or sent by) a dead incarnation must
    // not corrupt the scrubbed post-restart state (visited marks were
    // cleared; a stale back call could resurrect a completed trace's
    // frame). The matching sender entry was purged by NoteSiteRestarted, so
    // nothing keeps retransmitting this.
    ++stats_.stale_incarnation_rejected;
    DGC_LOG_TRACE("net: reject stale incarnation seq " << seq << " s" << from
                                                       << "->s" << to);
    return;
  }
  ReliableChannel& channel = Reliable(from, to);
  AdvanceReceiverTo(channel, base_seq);
  if (seq < channel.next_expected) {
    // Duplicate of an already delivered wire message (its ack was lost).
    // Discard, but re-ack so the sender stops retransmitting.
    ++stats_.dup_suppressed;
    SendAck(from, to);
    return;
  }
  if (seq > channel.next_expected) {
    // Out of order: stash until the gap fills, preserving R1's FIFO
    // delivery. emplace keeps the first copy if a duplicate races in.
    if (!channel.stashed.emplace(seq, std::move(envelopes)).second) {
      ++stats_.dup_suppressed;
    }
    SendAck(from, to);
    return;
  }
  // In order: deliver it plus any stash the gap was holding back.
  for (;;) {
    channel.next_expected = seq + 1;
    for (Envelope& envelope : envelopes) {
      ++stats_.inter_site_delivered;
      Dispatch(std::move(envelope));
    }
    const auto next = channel.stashed.find(channel.next_expected);
    if (next == channel.stashed.end()) break;
    seq = next->first;
    envelopes = std::move(next->second);
    channel.stashed.erase(next);
  }
  SendAck(from, to);
}

void Network::SendAck(SiteId from, SiteId to) {
  // Cumulative ack for data channel (from -> to), sent to -> from: "I have
  // delivered every wire message with seq < cumulative." Control frames
  // ride the same lossy medium but are not themselves retransmitted — the
  // ack after the next (re)transmission repairs a lost one.
  const std::uint64_t cumulative = Reliable(from, to).next_expected;
  ++stats_.acks_sent;
  ++stats_.wire_messages;
  stats_.wire_bytes += kFrameBytes;
  if (TransmissionLost(to, from)) {
    ++stats_.transmissions_lost;
    return;
  }
  const SimTime deliver_at = scheduler_.now() + DrawLatency();
  // Acks need no R1 order: cumulative acks are order-insensitive (a late
  // smaller ack is a no-op at the sender).
  scheduler_.At(deliver_at, [this, from, to, cumulative,
                             from_inc = incarnation(from),
                             to_inc = incarnation(to)] {
    OnAckArrival(from, to, cumulative, from_inc, to_inc);
  });
}

void Network::OnAckArrival(SiteId from, SiteId to, std::uint64_t cumulative,
                           std::uint32_t from_inc, std::uint32_t to_inc) {
  if (from_inc != incarnation(from) || to_inc != incarnation(to)) {
    // A restart reset the channel's sequence space; an old ack could
    // otherwise retire fresh entries that happen to reuse low seqs.
    return;
  }
  ReliableChannel& channel = Reliable(from, to);
  while (!channel.unacked.empty() &&
         channel.unacked.front().seq < cumulative) {
    RetireEntry(channel.unacked.front(), /*delivered=*/true);
    channel.unacked.pop_front();
  }
}

void Network::RetireEntry(SenderEntry& entry, bool delivered) {
  DGC_CHECK(in_flight_ >= entry.envelopes.size());
  in_flight_ -= entry.envelopes.size();
  if (!delivered) stats_.dropped += entry.envelopes.size();
  ReleaseBatchBuffer(std::move(entry.envelopes));
}

std::size_t Network::unacked_wire_messages() const {
  std::size_t total = 0;
  for (const Channel& channel : channels_) {
    if (channel.extras != nullptr && channel.extras->reliable != nullptr) {
      total += channel.extras->reliable->unacked.size();
    }
  }
  return total;
}

std::size_t Network::pending_batch_channels() const {
  return static_cast<std::size_t>(std::count_if(
      channels_.begin(), channels_.end(),
      [](const Channel& channel) {
        return channel.extras != nullptr && !channel.extras->batch.empty();
      }));
}

std::size_t Network::recovery_listener_entries() const {
  return static_cast<std::size_t>(
      std::count_if(sites_.begin(), sites_.end(), [](const SiteRecord& site) {
        return site.listener != nullptr;
      }));
}

// --- Incarnations ----------------------------------------------------------

std::uint32_t Network::incarnation(SiteId site) const {
  return site < sites_.size() ? sites_[site].incarnation : 0;
}

void Network::NoteSiteRestarted(SiteId site) {
  DGC_CHECK(Registered(site));
  SiteRecord& record = sites_[site];
  ++record.incarnation;
  // If the restart happened inside an outage, tag its record: the eventual
  // recovery notification then tells observers the peer is a new
  // incarnation (everything volatile it held is gone for certain).
  if (record.fault.down) record.fault.restarted_during_outage = true;
  // The dead incarnation's recovery subscription dies with the rest of its
  // connection state. The new incarnation re-registers (Site::CrashRestart
  // does so immediately after this call).
  record.listener = nullptr;
  if (!config_.reliable_delivery) return;
  // The restarted process shares no transport state with its previous life:
  // dead-letter every channel touching the site, its row then its column.
  // Wire messages already in the scheduler still arrive, but carry the old
  // incarnation and are rejected; with their sender entries gone, nothing
  // retransmits them.
  for (SiteId to = 0; to < sites_.size(); ++to) ResetReliable(site, to);
  for (SiteId from = 0; from < sites_.size(); ++from) {
    if (from != site) ResetReliable(from, site);
  }
}

void Network::ResetReliable(SiteId from, SiteId to) {
  const ChannelExtras* extras = ChannelAt(from, to).extras.get();
  if (extras == nullptr || extras->reliable == nullptr) return;
  ReliableChannel* channel = extras->reliable.get();
  // Stashed receiver payloads were never delivered, so their sender entries
  // (retired here) carried the in-flight account; the stash holds none.
  for (SenderEntry& entry : channel->unacked) {
    RetireEntry(entry, /*delivered=*/false);
  }
  *channel = ReliableChannel{};
}

// --- Faults and failure detection ------------------------------------------

FaultHooks Network::PlanHooks() {
  FaultHooks hooks;
  hooks.set_site_down = [this](SiteId site, bool down) {
    SetSiteDown(site, down);
  };
  hooks.set_link_down = [this](SiteId a, SiteId b, bool down) {
    SetLinkDown(a, b, down);
  };
  const auto open_bursts = std::make_shared<int>(0);
  hooks.begin_drop_burst = [this, open_bursts](double p) {
    ++*open_bursts;
    drop_override_ = p;
  };
  hooks.end_drop_burst = [this, open_bursts] {
    if (--*open_bursts == 0) drop_override_ = -1.0;
  };
  const auto open_spikes = std::make_shared<int>(0);
  hooks.begin_latency_spike = [this, open_spikes](SimTime extra) {
    ++*open_spikes;
    extra_latency_ = extra;
  };
  hooks.end_latency_spike = [this, open_spikes] {
    if (--*open_spikes == 0) extra_latency_ = 0;
  };
  return hooks;
}

void Network::SetSiteDown(SiteId site, bool down) {
  DGC_CHECK(Registered(site));
  SetDown(sites_[site].fault, down, site, kInvalidSite);
}

bool Network::IsSiteDown(SiteId site) const {
  return site < sites_.size() && sites_[site].fault.down;
}

void Network::SetLinkDown(SiteId a, SiteId b, bool down) {
  DGC_CHECK(Registered(a) && Registered(b));
  SetDown(Extras(std::min(a, b), std::max(a, b)).link, down, a, b);
}

bool Network::IsLinkDown(SiteId a, SiteId b) const {
  return a < sites_.size() && b < sites_.size() && Link(a, b).down;
}

void Network::SetDown(FaultRecord& record, bool down, SiteId a, SiteId b) {
  if (record.down == down) return;
  const SimTime now = scheduler_.now();
  record.down = down;
  if (down) {
    record.down_since = now;
    return;
  }
  record.healed_at = now;
  const bool restarted = std::exchange(record.restarted_during_outage, false);
  if (!failure_detection_enabled() ||
      now - record.down_since < SuspectAfter()) {
    return;  // never detected
  }
  // The outage was long enough that every detector suspected it (any call
  // parked on it was parked *because* suspicion had set in, which implies
  // the stretch outlasted the heartbeat timeout). Recovery becomes visible
  // one heartbeat period + round trip after heal.
  ++stats_.fd_suspicions;
  scheduler_.After(RecoverDelay(), [this, a, b, restarted] {
    NotifyRecovered(a, b, restarted);
  });
}

bool Network::RecordSuspected(const FaultRecord& record, SimTime now) const {
  if (record.down) return now - record.down_since >= SuspectAfter();
  // Healed, but the detector has not seen a fresh heartbeat yet.
  return record.healed_at >= 0 &&
         record.healed_at - record.down_since >= SuspectAfter() &&
         now < record.healed_at + RecoverDelay();
}

bool Network::IsPeerSuspected(SiteId observer, SiteId peer) const {
  if (!failure_detection_enabled() || observer >= sites_.size() ||
      peer >= sites_.size()) {
    return false;
  }
  const SimTime now = scheduler_.now();
  return RecordSuspected(sites_[peer].fault, now) ||
         RecordSuspected(Link(observer, peer), now);
}

void Network::SetRecoveryListener(SiteId observer, RecoveryListener listener) {
  DGC_CHECK(listener != nullptr && Registered(observer));
  sites_[observer].listener = std::move(listener);
}

void Network::NotifyRecovered(SiteId a, SiteId b, bool restarted) {
  ++stats_.fd_recoveries;
  if (b == kInvalidSite) {
    // Site heal: every observer learns `a` is back, in site order.
    for (SiteId observer = 0; observer < sites_.size(); ++observer) {
      const RecoveryListener& listener = sites_[observer].listener;
      if (observer != a && listener) listener(a, restarted);
    }
    return;
  }
  // Link heal: only the endpoints' view of each other changed (and neither
  // process died — a severed link never loses volatile state).
  if (const RecoveryListener& listener = sites_[a].listener) {
    listener(b, restarted);
  }
  if (const RecoveryListener& listener = sites_[b].listener) {
    listener(a, restarted);
  }
}

// --- Delivery --------------------------------------------------------------

void Network::Deliver(Envelope envelope) {
  DGC_CHECK(in_flight_ > 0);
  --in_flight_;
  // A site that crashed after the message was scheduled still loses it.
  if (envelope.from != envelope.to && IsSiteDown(envelope.to)) {
    ++stats_.dropped;
    return;
  }
  if (envelope.from != envelope.to) ++stats_.inter_site_delivered;
  Dispatch(std::move(envelope));
}

void Network::Dispatch(Envelope envelope) {
  DGC_LOG_TRACE("net: deliver " << PayloadKindName(envelope.payload.index())
                                << " s" << envelope.from << "->s"
                                << envelope.to);
  if (dispatcher_) {
    // Transport interposition (SocketTransport's outbound buffers, a
    // tracer).
    dispatcher_(std::move(envelope));
    return;
  }
  sites_[envelope.to].handler(envelope);
}

}  // namespace dgc
