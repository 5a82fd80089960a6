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
  if (handlers_.size() <= site) {
    handlers_.resize(static_cast<std::size_t>(site) + 1);
  }
  DGC_CHECK_MSG(handlers_[site] == nullptr, "site " << site
                                                    << " registered twice");
  handlers_[site] = std::move(handler);
}

void Network::Send(SiteId from, SiteId to, Payload payload) {
  DGC_CHECK_MSG(to < handlers_.size() && handlers_[to] != nullptr,
                "send to unregistered site " << to);

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
    auto [it, created] = Shard(pending_batches_, from).try_emplace(to);
    PendingBatch& batch = it->second;
    if (created) batch.envelopes = AcquireBatchBuffer();
    batch.envelopes.push_back(std::move(envelope));
    if (batch.envelopes.size() == 1) {
      scheduler_.After(config_.batch_window,
                       [this, from, to] { FlushChannel(from, to); });
    }
    return;
  }
  std::vector<Envelope> batch = AcquireBatchBuffer();
  batch.push_back(std::move(envelope));
  ShipBatch(from, to, std::move(batch));
}

void Network::FlushChannel(SiteId from, SiteId to) {
  auto& shard = Shard(pending_batches_, from);
  const auto it = shard.find(to);
  if (it == shard.end()) return;
  std::vector<Envelope> batch = std::move(it->second.envelopes);
  // The window closed and the channel went quiet: erase the entry rather
  // than parking an empty slot forever — Send re-creates it (and re-arms the
  // flush timer) on the channel's next payload, so long-running sims track
  // active channels instead of every pair that ever talked.
  shard.erase(it);
  if (batch.empty()) {
    ReleaseBatchBuffer(std::move(batch));
    return;
  }
  ShipBatch(from, to, std::move(batch));
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
  const bool faulted = IsSiteDown(from) || IsSiteDown(to) ||
                       link_down_.contains(LinkKey(from, to));
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
    SenderChannel& channel = Shard(sender_channels_, from)[to];
    if (channel.epoch == 0) channel.epoch = next_channel_epoch_++;
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

  const SimTime latency = DrawLatency();
  // Amortized purge of inert FIFO-clamp entries: a channel whose last
  // delivery is in the past can never lift max(now + latency, last), so its
  // entry is dead weight until the channel speaks again. The trigger is
  // global (every shard is swept) so a shard whose sender went quiet is
  // still purged by other sites' traffic.
  if (stats_.wire_messages % kChannelPurgePeriod == 0) {
    PurgeInertClampEntries();
  }

  // Clamp to preserve per-channel FIFO order (assumption R1 of Section 6.4).
  SimTime& last = Shard(channel_last_delivery_, from)[to];
  const SimTime deliver_at = std::max(scheduler_.now() + latency, last);
  last = deliver_at;

  scheduler_.At(deliver_at, [this, batch = std::move(batch)]() mutable {
    for (Envelope& envelope : batch) {
      Deliver(std::move(envelope));
    }
    ReleaseBatchBuffer(std::move(batch));
  });
}

void Network::PurgeInertClampEntries() {
  const SimTime now = scheduler_.now();
  for (auto& shard : channel_last_delivery_) {
    shard.erase_if([now](const auto& entry) { return entry.second <= now; });
  }
}

// --- Reliable channels -----------------------------------------------------

SimTime Network::RetransmitBase() const {
  // Just past one worst-case round trip: an ack already in flight usually
  // beats the timer, so a healthy channel rarely retransmits.
  return 2 * (config_.latency + config_.latency_jitter) +
         config_.batch_window + 1;
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
  const SimTime latency = DrawLatency();
  if (stats_.wire_messages % kChannelPurgePeriod == 0) {
    PurgeInertClampEntries();
  }
  // The R1 FIFO clamp applies to every transmission; sequence numbers then
  // restore order across retransmissions the clamp cannot see.
  SimTime& last = Shard(channel_last_delivery_, from)[to];
  const SimTime deliver_at = std::max(scheduler_.now() + latency, last);
  last = deliver_at;
  // Oldest outstanding seq at transmission time: everything below it is
  // delivered or abandoned, so the receiver may skip past gaps below it
  // (otherwise one exhausted retransmit budget wedges the channel forever).
  auto& sender_shard = Shard(sender_channels_, from);
  const auto channel_it = sender_shard.find(to);
  const std::uint64_t base_seq =
      channel_it != sender_shard.end() && !channel_it->second.unacked.empty()
          ? channel_it->second.unacked.front().seq
          : entry.seq;
  scheduler_.At(deliver_at,
                [this, from, to, seq = entry.seq, base_seq,
                 from_inc = entry.from_inc, to_inc = entry.to_inc,
                 envelopes = entry.envelopes]() mutable {
                  OnWireArrival(from, to, seq, base_seq, from_inc, to_inc,
                                std::move(envelopes));
                });
}

void Network::ArmRetransmitTimer(SiteId from, SiteId to) {
  auto& shard = Shard(sender_channels_, from);
  const auto it = shard.find(to);
  if (it == shard.end()) return;
  SenderChannel& channel = it->second;
  if (channel.timer_armed || channel.unacked.empty()) return;
  channel.timer_armed = true;
  // Exponential backoff on the oldest entry's attempt count, plus
  // deterministic jitter so colliding channels desynchronize.
  const int attempts = channel.unacked.front().attempts;
  const int shift = std::min(attempts > 0 ? attempts - 1 : 0, 10);
  SimTime delay = RetransmitBase() << shift;
  delay += static_cast<SimTime>(
      rng_.NextBelow(static_cast<std::uint64_t>(delay / 4) + 1));
  scheduler_.After(delay, [this, from, to, epoch = channel.epoch] {
    auto& timer_shard = Shard(sender_channels_, from);
    const auto timer_it = timer_shard.find(to);
    if (timer_it == timer_shard.end() || timer_it->second.epoch != epoch) {
      return;  // channel purged (restart) since the timer was armed
    }
    SenderChannel& ch = timer_it->second;
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

void Network::AdvanceReceiverTo(SiteId from, SiteId to,
                                std::uint64_t base_seq) {
  // The sender vouches that every seq below base_seq is delivered or
  // abandoned. Deliver any stashed in-order messages below it, skip the
  // abandoned gaps, and move next_expected up so the channel cannot wait
  // forever for a wire message nobody will retransmit. Handlers may send
  // (mutating receiver state), so re-find the channel after each batch.
  for (;;) {
    ReceiverChannel& channel = Shard(receiver_channels_, from)[to];
    if (channel.next_expected >= base_seq) return;
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
  if (base_seq > Shard(receiver_channels_, from)[to].next_expected) {
    AdvanceReceiverTo(from, to, base_seq);
  }
  {
    ReceiverChannel& channel = Shard(receiver_channels_, from)[to];
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
  }
  // In order: deliver it plus any stash the gap was holding back. Handlers
  // may send messages (mutating sender state), so re-find the receiver
  // channel after each batch instead of holding a reference across calls.
  for (;;) {
    Shard(receiver_channels_, from)[to].next_expected = seq + 1;
    for (Envelope& envelope : envelopes) {
      ++stats_.inter_site_delivered;
      Dispatch(std::move(envelope));
    }
    ReceiverChannel& channel = Shard(receiver_channels_, from)[to];
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
  const std::uint64_t cumulative =
      Shard(receiver_channels_, from)[to].next_expected;
  ++stats_.acks_sent;
  ++stats_.wire_messages;
  stats_.wire_bytes += kFrameBytes;
  if (TransmissionLost(to, from)) {
    ++stats_.transmissions_lost;
    return;
  }
  const SimTime deliver_at = scheduler_.now() + DrawLatency();
  // No FIFO clamp: cumulative acks are order-insensitive (a late smaller
  // ack is a no-op at the sender).
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
  auto& shard = Shard(sender_channels_, from);
  const auto it = shard.find(to);
  if (it == shard.end()) return;
  SenderChannel& channel = it->second;
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
  for (const auto& shard : sender_channels_) {
    for (const auto& [to, channel] : shard) {
      (void)to;
      total += channel.unacked.size();
    }
  }
  return total;
}

std::size_t Network::pending_batch_channels() const {
  std::size_t total = 0;
  for (const auto& shard : pending_batches_) total += shard.size();
  return total;
}

std::size_t Network::channel_clamp_entries() const {
  std::size_t total = 0;
  for (const auto& shard : channel_last_delivery_) total += shard.size();
  return total;
}

// --- Incarnations ----------------------------------------------------------

std::uint32_t Network::incarnation(SiteId site) const {
  return site < incarnations_.size() ? incarnations_[site] : 0;
}

void Network::NoteSiteRestarted(SiteId site) {
  if (incarnations_.size() <= site) {
    incarnations_.resize(static_cast<std::size_t>(site) + 1, 0);
  }
  ++incarnations_[site];
  // If the restart happened inside a tracked outage, tag the fault record:
  // the eventual recovery notification then tells observers the peer is a
  // new incarnation (everything volatile it held is gone for certain).
  if (failure_detection_enabled()) {
    const auto it = site_fault_records_.find(site);
    if (it != site_fault_records_.end() && it->second.down) {
      it->second.restarted_during_outage = true;
    }
  }
  // The dead incarnation's recovery subscription dies with the rest of its
  // connection state — without this, a long run with restarting sites grows
  // the listener map with stale closures. The new incarnation re-registers
  // (Site::CrashRestart does so immediately after this call).
  recovery_listeners_.erase(site);
  if (!config_.reliable_delivery) return;
  // The restarted process shares no transport state with its previous life:
  // dead-letter every channel touching the site, in both directions. Wire
  // messages already in the scheduler still arrive, but carry the old
  // incarnation and are rejected; with their sender entries gone, nothing
  // retransmits them. Sharding makes this O(sites), not O(all channel
  // pairs): the site's own shard, plus its key in every other shard.
  if (site < sender_channels_.size()) {
    for (auto& [to, channel] : sender_channels_[site]) {
      (void)to;
      for (SenderEntry& entry : channel.unacked) {
        RetireEntry(entry, /*delivered=*/false);
      }
    }
    sender_channels_[site].clear();
  }
  for (SiteId from = 0; from < sender_channels_.size(); ++from) {
    if (from == site) continue;
    auto& shard = sender_channels_[from];
    const auto it = shard.find(site);
    if (it == shard.end()) continue;
    for (SenderEntry& entry : it->second.unacked) {
      RetireEntry(entry, /*delivered=*/false);
    }
    shard.erase(it);
  }
  // Stashed receiver payloads were never delivered, so their sender entries
  // (just retired above when the sender or receiver is `site`) carried the
  // in-flight account; the stash itself holds none.
  if (site < receiver_channels_.size()) receiver_channels_[site].clear();
  for (SiteId from = 0; from < receiver_channels_.size(); ++from) {
    if (from == site) continue;
    receiver_channels_[from].erase(site);
  }
}

// --- Faults and failure detection ------------------------------------------

FaultHooks Network::PlanHooks() {
  FaultHooks hooks;
  hooks.set_site_down = [this](SiteId site, bool down) {
    DGC_CHECK(site < handlers_.size());
    SetSiteDown(site, down);
  };
  hooks.set_link_down = [this](SiteId a, SiteId b, bool down) {
    DGC_CHECK(a < handlers_.size() && b < handlers_.size());
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
  if (down) {
    if (!site_down_.insert(site).second) return;  // already down
    if (failure_detection_enabled()) {
      FaultRecord& record = site_fault_records_[site];
      record.down = true;
      record.down_since = scheduler_.now();
    }
  } else {
    if (site_down_.erase(site) == 0) return;  // was not down
    if (failure_detection_enabled()) {
      HealRecord(site_fault_records_[site], site, kInvalidSite);
    }
  }
}

bool Network::IsSiteDown(SiteId site) const {
  return site_down_.contains(site);
}

void Network::SetLinkDown(SiteId a, SiteId b, bool down) {
  const std::uint64_t key = LinkKey(a, b);
  if (down) {
    if (!link_down_.insert(key).second) return;
    if (failure_detection_enabled()) {
      FaultRecord& record = link_fault_records_[key];
      record.down = true;
      record.down_since = scheduler_.now();
    }
  } else {
    if (link_down_.erase(key) == 0) return;
    if (failure_detection_enabled()) {
      HealRecord(link_fault_records_[key], a, b);
    }
  }
}

bool Network::IsLinkDown(SiteId a, SiteId b) const {
  return link_down_.contains(LinkKey(a, b));
}

bool Network::RecordSuspected(const FaultRecord& record, SimTime now) const {
  if (record.down) return now - record.down_since >= SuspectAfter();
  // Healed, but the detector has not seen a fresh heartbeat yet.
  return record.healed_at >= 0 && record.last_stretch >= SuspectAfter() &&
         now < record.healed_at + RecoverDelay();
}

bool Network::IsPeerSuspected(SiteId observer, SiteId peer) const {
  if (!failure_detection_enabled()) return false;
  const SimTime now = scheduler_.now();
  const auto site_it = site_fault_records_.find(peer);
  if (site_it != site_fault_records_.end() &&
      RecordSuspected(site_it->second, now)) {
    return true;
  }
  const auto link_it = link_fault_records_.find(LinkKey(observer, peer));
  return link_it != link_fault_records_.end() &&
         RecordSuspected(link_it->second, now);
}

void Network::SetRecoveryListener(SiteId observer, RecoveryListener listener) {
  DGC_CHECK(listener != nullptr);
  recovery_listeners_[observer] = std::move(listener);
}

void Network::HealRecord(FaultRecord& record, SiteId a, SiteId b) {
  const SimTime now = scheduler_.now();
  record.down = false;
  record.healed_at = now;
  record.last_stretch = now - record.down_since;
  const bool restarted = record.restarted_during_outage;
  record.restarted_during_outage = false;
  if (record.last_stretch < SuspectAfter()) return;  // never detected
  // The outage was long enough that every detector suspected it (any call
  // parked on it was parked *because* suspicion had set in, which implies
  // the stretch outlasted the heartbeat timeout). Recovery becomes visible
  // one heartbeat period + round trip after heal.
  ++stats_.fd_suspicions;
  scheduler_.After(RecoverDelay(),
                   [this, a, b, restarted] { NotifyRecovered(a, b, restarted); });
}

void Network::NotifyRecovered(SiteId a, SiteId b, bool restarted) {
  ++stats_.fd_recoveries;
  if (b == kInvalidSite) {
    // Site heal: every observer learns `a` is back.
    for (const auto& [observer, listener] : recovery_listeners_) {
      if (observer != a) listener(a, restarted);
    }
    return;
  }
  // Link heal: only the endpoints' view of each other changed (and neither
  // process died — a severed link never loses volatile state).
  const auto a_it = recovery_listeners_.find(a);
  if (a_it != recovery_listeners_.end()) a_it->second(b, restarted);
  const auto b_it = recovery_listeners_.find(b);
  if (b_it != recovery_listeners_.end()) b_it->second(a, restarted);
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
  DGC_CHECK_MSG(
      envelope.to < handlers_.size() && handlers_[envelope.to] != nullptr,
      "deliver to unregistered site " << envelope.to);
  if (dispatcher_) {
    // Transport interposition (SocketTransport's outbound buffers, a
    // tracer); the registered-handler check above still applies so an
    // unregistered destination fails identically either way.
    dispatcher_(std::move(envelope));
    return;
  }
  handlers_[envelope.to](envelope);
}

}  // namespace dgc
