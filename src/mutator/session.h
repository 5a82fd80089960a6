// Mutator sessions (Sections 2 and 6).
//
// A session models an application running at a *home* site. It holds
// references in variables — the application roots of Section 6.3: a variable
// naming a local object registers it as a trace root; one naming a remote
// object pins the corresponding outref clean. Operations on remote objects
// are RPCs whose reference-carrying messages drive the transfer barrier at
// the receiving site and the insert barrier for newly created outrefs
// (Section 6.1.2) — the session never touches another site's state directly.
//
// Operations come in two flavors: Start* (asynchronous, completion callback;
// used by the concurrency scenarios of Figures 5 and 6) and blocking-style
// wrappers that drive the scheduler until the operation completes (used by
// examples and straight-line tests; the rest of the world keeps running
// in the meantime).
#pragma once

#include <cstdint>
#include <functional>
#include <map>

#include "common/ids.h"
#include "core/system.h"

namespace dgc {

class Session {
 public:
  Session(System& system, SiteId home, std::uint64_t id);
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  [[nodiscard]] SiteId home() const { return home_; }
  [[nodiscard]] std::uint64_t id() const { return id_; }
  [[nodiscard]] bool busy() const { return busy_; }

  // --- Variable management (application roots) -------------------------

  /// Declares that a variable now holds `ref`. Local objects become app
  /// roots; remote references pin their (existing) outrefs.
  void Hold(ObjectId ref);

  /// Drops one hold of `ref`.
  void Release(ObjectId ref);

  /// Drops every hold (also done by the destructor).
  void ReleaseAll();

  /// Forgets every hold without releasing it: the home site crashed, so the
  /// pins and app roots these holds refer to are already gone. Releasing
  /// them normally would unpin state the restarted site never re-created.
  void Abandon();

  [[nodiscard]] bool Holds(ObjectId ref) const {
    return holds_.contains(ref);
  }

  // --- Operations --------------------------------------------------------

  /// Allocates a fresh object at the home site and holds it.
  ObjectId Create(std::size_t slots);

  /// Obtains a reference to a persistent root (name-server lookup) and
  /// holds it. Runs §6.1.2 reference arrival if the root is remote.
  ObjectId LoadRoot(ObjectId root);
  void StartLoadRoot(ObjectId root, std::function<void(ObjectId)> done);

  /// Reads target.slots[slot]; the result (if any) is held. A remote read
  /// transfers `target` to its owner (transfer barrier) and the result back
  /// here (§6.1.2 cases).
  ObjectId Read(ObjectId target, std::size_t slot);
  void StartRead(ObjectId target, std::size_t slot,
                 std::function<void(ObjectId)> done);

  /// Writes `value` (which must be held, or invalid to clear) into
  /// target.slots[slot].
  void Write(ObjectId target, std::size_t slot, ObjectId value);
  void StartWrite(ObjectId target, std::size_t slot, ObjectId value,
                  std::function<void()> done);

 private:
  System& system_;
  SiteId home_;
  std::uint64_t id_;
  bool busy_ = false;
  std::map<ObjectId, int> holds_;
};

}  // namespace dgc
