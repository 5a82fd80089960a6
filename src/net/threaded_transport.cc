#include "net/threaded_transport.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "common/check.h"

namespace dgc {

thread_local std::vector<ThreadedTransport::StagedSend>*
    ThreadedTransport::tls_staged_ = nullptr;

ThreadedTransport::ThreadedTransport(std::size_t site_count,
                                     Scheduler& control, NetworkConfig config,
                                     Rng rng)
    : control_(control), network_(control, config, rng) {
  DGC_CHECK(site_count > 0);
  sites_.reserve(site_count);
  for (std::size_t i = 0; i < site_count; ++i) {
    sites_.push_back(std::make_unique<SiteState>());
  }
  handlers_.resize(site_count);

  // An explicit transport_threads is honoured verbatim (TSan smokes want
  // more threads than sites); only the hardware default is clamped to the
  // site count, where extra threads could never find work.
  std::size_t threads = config.transport_threads;
  if (threads == 0) {
    threads = std::min<std::size_t>(
        std::max<std::size_t>(1, std::thread::hardware_concurrency()),
        site_count);
  }
  threads_ = std::max<std::size_t>(1, threads);
  // The coordinator participates in every batch.
  pool_ = std::make_unique<WorkerPool>(threads_ - 1);

  network_.set_dispatcher([this](Envelope&& envelope) {
    // Coordinator thread (all Network processing happens there). Route the
    // finished delivery into the destination's inbox; the site's handler
    // runs on the site's thread in the next parallel phase.
    DGC_CHECK(envelope.to < sites_.size());
    SiteState& state = *sites_[envelope.to];
    state.inbox.Push(std::move(envelope));
    ++state.handoffs;
    ++counters_.handoffs;
  });
}

ThreadedTransport::~ThreadedTransport() = default;

Scheduler& ThreadedTransport::SchedulerFor(SiteId site) {
  DGC_CHECK(site < sites_.size());
  return sites_[site]->scheduler;
}

void ThreadedTransport::RegisterSite(SiteId site, Network::Handler handler) {
  DGC_CHECK(site < handlers_.size());
  // Keep a copy for SiteStep (site threads must not reach into the
  // coordinator-confined Network) and register with the Network as usual so
  // its delivery-path checks keep holding.
  handlers_[site] = handler;
  network_.RegisterSite(site, std::move(handler));
}

void ThreadedTransport::Send(SiteId from, SiteId to, Payload payload) {
  if (tls_staged_ != nullptr) {
    // On a site thread mid-step: stage for coordinator replay.
    tls_staged_->push_back(StagedSend{from, to, std::move(payload)});
    return;
  }
  // Coordinator (or test god-mode between engine calls): the Network is
  // ours to touch directly, matching the simulator's schedule exactly.
  network_.Send(from, to, std::move(payload));
}

SimTime ThreadedTransport::NextEventTime() const {
  SimTime next = control_.next_event_time();
  for (const auto& state : sites_) {
    next = std::min(next, state->scheduler.next_event_time());
  }
  return next;
}

void ThreadedTransport::AdvanceWorldTo(SimTime t) {
  DGC_CHECK(t >= global_now_);
  global_now_ = t;
  ++counters_.timesteps;
  std::uint64_t phases_this_step = 0;
  for (;;) {
    // Control phase: deliveries, retransmit timers, fault-plan hooks — all
    // single-threaded on the coordinator. Deliveries land in inboxes via
    // the dispatcher.
    control_.RunUntil(t);

    involved_.clear();
    for (SiteId s = 0; s < sites_.size(); ++s) {
      const SiteState& state = *sites_[s];
      if (!state.inbox.Empty() || state.scheduler.next_event_time() <= t) {
        involved_.push_back(s);
      }
    }
    if (involved_.empty()) break;  // quiescent at t

    DGC_CHECK_MSG(++phases_this_step <= kMaxPhasesPerTimestep,
                  "transport livelock: " << phases_this_step
                                         << " phases at t=" << t);
    ++counters_.parallel_phases;
    counters_.site_steps += involved_.size();
    for (SiteId s : involved_) ++sites_[s]->steps;

    // Parallel phase: involved sites step concurrently. The RunBatch
    // fork/join barrier orders this against all coordinator work.
    pool_->RunBatch(involved_.size(),
                    [this, t](std::size_t i) { SiteStep(involved_[i], t); });

    // Replay: staged sends enter the Network in site order — a fixed,
    // interleaving-independent order, which is what keeps seeded runs
    // reproducible across thread schedules.
    for (SiteId s : involved_) ReplayStaged(*sites_[s]);
  }
}

void ThreadedTransport::SiteStep(SiteId site, SimTime t) {
  SiteState& state = *sites_[site];
  DGC_CHECK(tls_staged_ == nullptr);
  tls_staged_ = &state.staged;
  for (;;) {
    // Own timers first (they were scheduled before this instant), then the
    // inbox; repeat because a handler may schedule more work at t.
    state.scheduler.RunUntil(t);
    bool handled = false;
    Envelope envelope;
    while (state.inbox.TryPop(envelope)) {
      handled = true;
      DGC_CHECK(envelope.to == site);
      handlers_[site](envelope);
    }
    if (!handled && state.scheduler.next_event_time() > t) break;
  }
  tls_staged_ = nullptr;
}

void ThreadedTransport::ReplayStaged(SiteState& state) {
  for (StagedSend& send : state.staged) {
    ++counters_.staged_sends;
    ++state.staged_sends;
    network_.Send(send.from, send.to, std::move(send.payload));
  }
  state.staged.clear();
}

void ThreadedTransport::SyncClocksTo(SimTime t) {
  // No scheduler holds an event <= t here, so RunUntil only moves clocks.
  control_.RunUntil(t);
  for (auto& state : sites_) state->scheduler.RunUntil(t);
  global_now_ = t;
}

void ThreadedTransport::RunUntilTime(SimTime t) {
  DGC_CHECK(t >= global_now_);
  for (;;) {
    const SimTime next = NextEventTime();
    if (next > t) break;  // covers kNoPendingEvent
    AdvanceWorldTo(next);
  }
  SyncClocksTo(t);
}

bool ThreadedTransport::StepOne() {
  const SimTime next = NextEventTime();
  if (next == Scheduler::kNoPendingEvent) return false;
  AdvanceWorldTo(std::max(next, global_now_));
  return true;
}

void ThreadedTransport::Settle() {
  for (;;) {
    const SimTime next = NextEventTime();
    if (next == Scheduler::kNoPendingEvent) break;
    AdvanceWorldTo(next);
  }
  SyncClocksTo(global_now_);
}

TransportCounters ThreadedTransport::counters() const {
  TransportCounters total = counters_;
  for (const auto& state : sites_) {
    const auto queue = state->inbox.stats();
    total.inbox_peak_depth = std::max(total.inbox_peak_depth,
                                      queue.peak_depth);
    total.inbox_contention += queue.contention;
  }
  return total;
}

SiteTransportCounters ThreadedTransport::site_counters(SiteId site) const {
  DGC_CHECK(site < sites_.size());
  const SiteState& state = *sites_[site];
  const auto queue = state.inbox.stats();
  SiteTransportCounters out;
  out.handoffs = state.handoffs;
  out.staged_sends = state.staged_sends;
  out.steps = state.steps;
  out.queue_peak_depth = queue.peak_depth;
  out.queue_contention = queue.contention;
  return out;
}

}  // namespace dgc
