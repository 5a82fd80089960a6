#include "mutator/transaction.h"

#include <algorithm>
#include <span>

#include "common/check.h"
#include "mutator/pump.h"

namespace dgc {

TransactionClient::TransactionClient(System& system, SiteId home,
                                     std::uint64_t id)
    : system_(system), home_(home), id_(id) {
  DGC_CHECK(home < system.site_count());
}

TransactionClient::~TransactionClient() { EndTransaction(); }

void TransactionClient::Hold(ObjectId ref) {
  DGC_CHECK(ref.valid());
  Site& home_site = system_.site(home_);
  const auto it = holds_.find(ref);
  if (it != holds_.end()) {
    // Nested hold: bump the site-side count too, so releases balance.
    if (ref.site == home_) {
      home_site.AddAppRoot(ref);
    } else {
      home_site.PinOutref(ref);
    }
    ++it->second;
    return;
  }
  if (ref.site == home_) {
    home_site.AddAppRoot(ref);
  } else {
    // First arrival of this reference at the client: §6.1.2 cases (possibly
    // a synchronous insert), then the variable pin.
    bool done = false;
    home_site.ReceiveReference(ref, [&] { done = true; });
    PumpUntil(system_, done,
              [&home_site] { home_site.ResendPendingInserts(); });
    home_site.PinOutref(ref);
  }
  holds_.emplace(ref, 1);
}

void TransactionClient::Fetch(ObjectId obj) {
  if (cache_.contains(obj)) return;
  Hold(obj);
  if (obj.site == home_) {
    const std::span<const ObjectId> slots =
        system_.site(home_).heap().Slots(obj);
    cache_.emplace(obj, std::vector<ObjectId>(slots.begin(), slots.end()));
    return;
  }
  bool done = false;
  std::vector<ObjectId> slots;
  system_.site(home_).RegisterFetchContinuation(
      id_, [&](const std::vector<ObjectId>& fetched) {
        slots = fetched;
        done = true;
      });
  system_.network().Send(home_, obj.site, FetchMsg{id_, obj});
  PumpUntil(system_, done, [this, obj] {
    system_.site(home_).ResendPendingInserts();
    system_.network().Send(home_, obj.site, FetchMsg{id_, obj});
  });
  // The serving site retained every reference in the copy on our behalf
  // (§2 sender retention); remember them for release.
  std::vector<ObjectId> pinned;
  for (const ObjectId ref : slots) {
    if (ref.valid()) pinned.push_back(ref);
  }
  if (!pinned.empty()) fetch_pins_.emplace(obj, std::move(pinned));
  cache_.emplace(obj, std::move(slots));
}

ObjectId TransactionClient::ReadCached(ObjectId obj, std::size_t slot) {
  const auto it = cache_.find(obj);
  DGC_CHECK_MSG(it != cache_.end(), "read of unfetched object " << obj);
  DGC_CHECK_MSG(slot < it->second.size(),
                "slot " << slot << " out of range for cached " << obj);
  // Write-log overlay: the latest buffered write to this slot wins.
  ObjectId value = it->second[slot];
  for (const CommitWrite& write : log_) {
    if (write.target == obj && write.slot == slot) value = write.value;
  }
  if (value.valid()) Hold(value);
  return value;
}

void TransactionClient::Write(ObjectId obj, std::size_t slot, ObjectId value) {
  DGC_CHECK_MSG(cache_.contains(obj), "write to unfetched object " << obj);
  DGC_CHECK_MSG(!value.valid() || holds_.contains(value),
                "write of unheld reference "
                    << value << " — fetch, read or create it first");
  log_.push_back(
      CommitWrite{obj, static_cast<std::uint32_t>(slot), value});
}

ObjectId TransactionClient::Create(std::size_t slots) {
  const ObjectId obj = system_.site(home_).heap().Allocate(slots);
  system_.site(home_).AddAppRoot(obj);
  holds_.emplace(obj, 1);
  cache_.emplace(obj, std::vector<ObjectId>(slots, kInvalidObject));
  return obj;
}

void TransactionClient::Commit() {
  if (log_.empty()) return;
  // Group the write log by owning site (the per-owner slices).
  std::map<SiteId, CommitMsg> slices;
  for (const CommitWrite& write : log_) {
    CommitMsg& slice = slices[write.target.site];
    slice.session = id_;
    slice.writes.push_back(write);
  }
  bool done = false;
  std::set<SiteId> owners;
  for (const auto& [owner, slice] : slices) owners.insert(owner);
  system_.site(home_).RegisterCommitContinuation(id_, owners,
                                                 [&] { done = true; });
  for (auto& [owner, slice] : slices) {
    system_.network().Send(home_, owner, CommitMsg(slice));
  }
  PumpUntil(system_, done, [this, &slices] {
    system_.site(home_).ResendPendingInserts();
    for (auto& [owner, slice] : slices) {
      // The written references arrive at the owner and wait for its inserts.
      system_.site(owner).ResendPendingInserts();
      system_.network().Send(home_, owner, CommitMsg(slice));
    }
  });
  // Fold committed writes into the cached copies, then clear the log.
  for (const CommitWrite& write : log_) {
    cache_.at(write.target)[write.slot] = write.value;
  }
  log_.clear();
}

void TransactionClient::Abort() { log_.clear(); }

void TransactionClient::EndTransaction() {
  log_.clear();
  cache_.clear();
  // Release the serving sites' sender-retention pins.
  for (const auto& [obj, refs] : fetch_pins_) {
    for (const ObjectId ref : refs) {
      system_.network().Send(home_, obj.site, PinReleaseMsg{ref});
    }
  }
  fetch_pins_.clear();
  Site& home_site = system_.site(home_);
  for (const auto& [ref, count] : holds_) {
    for (int i = 0; i < count; ++i) {
      if (ref.site == home_) {
        home_site.RemoveAppRoot(ref);
      } else {
        home_site.UnpinOutref(ref);
      }
    }
  }
  holds_.clear();
}

}  // namespace dgc
