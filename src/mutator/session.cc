#include "mutator/session.h"

#include <utility>

#include "common/check.h"
#include "mutator/pump.h"

namespace dgc {

Session::Session(System& system, SiteId home, std::uint64_t id)
    : system_(system), home_(home), id_(id) {
  DGC_CHECK(home < system.site_count());
}

Session::~Session() { ReleaseAll(); }

void Session::Hold(ObjectId ref) {
  DGC_CHECK(ref.valid());
  Site& home_site = system_.site(home_);
  if (ref.site == home_) {
    home_site.AddAppRoot(ref);
  } else {
    home_site.PinOutref(ref);
  }
  holds_[ref] += 1;
}

void Session::Release(ObjectId ref) {
  const auto it = holds_.find(ref);
  DGC_CHECK_MSG(it != holds_.end(), "session does not hold " << ref);
  Site& home_site = system_.site(home_);
  if (ref.site == home_) {
    home_site.RemoveAppRoot(ref);
  } else {
    home_site.UnpinOutref(ref);
  }
  if (--it->second == 0) holds_.erase(it);
}

void Session::ReleaseAll() {
  while (!holds_.empty()) Release(holds_.begin()->first);
}

void Session::Abandon() {
  holds_.clear();
  busy_ = false;
}

ObjectId Session::Create(std::size_t slots) {
  const ObjectId obj = system_.site(home_).heap().Allocate(slots);
  Hold(obj);
  return obj;
}

void Session::StartLoadRoot(ObjectId root, std::function<void(ObjectId)> done) {
  DGC_CHECK(!busy_);
  if (root.site == home_) {
    Hold(root);
    done(root);
    return;
  }
  busy_ = true;
  // The name server hands this site the reference: §6.1.2 arrival cases,
  // then pin it as a variable.
  system_.site(home_).ReceiveReference(
      root, [this, root, done = std::move(done)] {
        Hold(root);
        busy_ = false;
        done(root);
      });
}

ObjectId Session::LoadRoot(ObjectId root) {
  ObjectId result = kInvalidObject;
  bool completed = false;
  StartLoadRoot(root, [&](ObjectId obj) {
    result = obj;
    completed = true;
  });
  // A stall here means the case-4 insert (or its ack) was lost.
  PumpUntil(system_, completed,
            [this] { system_.site(home_).ResendPendingInserts(); });
  return result;
}

void Session::StartRead(ObjectId target, std::size_t slot,
                        std::function<void(ObjectId)> done) {
  DGC_CHECK(!busy_);
  DGC_CHECK_MSG(Holds(target), "read of unheld reference " << target);
  Site& home_site = system_.site(home_);
  if (target.site == home_) {
    // Local navigation: no inter-site transfer, no barrier.
    const ObjectId value = home_site.heap().GetSlot(target, slot);
    if (value.valid()) Hold(value);
    done(value);
    return;
  }
  busy_ = true;
  home_site.RegisterSessionContinuation(
      id_, [this, done = std::move(done)](ObjectId value) {
        if (value.valid()) Hold(value);
        busy_ = false;
        done(value);
      });
  system_.network().Send(home_, target.site,
                         MutatorReadMsg{id_, target,
                                        static_cast<std::uint32_t>(slot)});
}

ObjectId Session::Read(ObjectId target, std::size_t slot) {
  ObjectId result = kInvalidObject;
  bool completed = false;
  StartRead(target, slot, [&](ObjectId value) {
    result = value;
    completed = true;
  });
  PumpUntil(system_, completed, [this, target, slot] {
    // Re-issue the read RPC and nudge pending inserts; both are idempotent
    // and duplicate replies are tolerated.
    system_.site(home_).ResendPendingInserts();
    if (target.site != home_) {
      system_.network().Send(home_, target.site,
                             MutatorReadMsg{id_, target,
                                            static_cast<std::uint32_t>(slot)});
    }
  });
  return result;
}

void Session::StartWrite(ObjectId target, std::size_t slot, ObjectId value,
                         std::function<void()> done) {
  DGC_CHECK(!busy_);
  DGC_CHECK_MSG(Holds(target), "write to unheld reference " << target);
  DGC_CHECK_MSG(!value.valid() || Holds(value),
                "write of unheld reference " << value
                    << " — a mutator must traverse a path to a reference "
                       "before copying it (Section 6.1)");
  Site& home_site = system_.site(home_);
  if (target.site == home_) {
    // Local copy (§6.1.1): safe without a barrier here because obtaining
    // `value` already applied the transfer barrier on arrival, and variables
    // are roots. SetSlot bumps the heap's mutation epoch, so every mutator
    // write (this local path, the remote MutatorWriteMsg path, and
    // transaction commit slices) ends trace reuse without extra hooks here.
    home_site.heap().SetSlot(target, slot, value);
    done();
    return;
  }
  busy_ = true;
  home_site.RegisterSessionContinuation(id_,
                                        [this, done = std::move(done)](
                                            ObjectId) {
                                          busy_ = false;
                                          done();
                                        });
  system_.network().Send(
      home_, target.site,
      MutatorWriteMsg{id_, target, static_cast<std::uint32_t>(slot), value});
}

void Session::Write(ObjectId target, std::size_t slot, ObjectId value) {
  bool completed = false;
  StartWrite(target, slot, value, [&] { completed = true; });
  PumpUntil(system_, completed, [this, target, slot, value] {
    system_.site(home_).ResendPendingInserts();
    if (target.site != home_) {
      // `value` arrives at the target's site, and waits there for that
      // site's insert, which may be the message that was lost.
      system_.site(target.site).ResendPendingInserts();
      system_.network().Send(
          home_, target.site,
          MutatorWriteMsg{id_, target, static_cast<std::uint32_t>(slot),
                          value});
    }
  });
}

}  // namespace dgc
