// Scripted seeded churn over an abstract god-mode world.
//
// The sim-vs-socket differential needs ONE op stream applied to two worlds
// that share nothing but the protocol: a System (in-process sites) and a
// SocketWorld (real processes). GodWorld is that seam — the minimal
// god-mode surface both expose — and RunScriptedChurn is a deterministic
// generator over it: every RNG draw happens here, on the driver side, and
// object ids are whatever the worlds mint (identical by construction, since
// every heap allocates storage slots and generations the same way for the
// same op stream). Run it twice with one seed and the two worlds must agree on
// every verdict and every reclaimed object.
//
// The workload shape is the paper's: cross-site rings (distributed cycles)
// tethered to a persistent root, tethers cut at random (the ring becomes
// distributed garbage only back tracing can collect), plus local self-loop
// garbage the local collector handles, all interleaved with collection
// rounds.
#pragma once

#include <cstdint>
#include <vector>

#include "common/ids.h"
#include "core/system.h"
#include "net/socket_world.h"

namespace dgc {

/// The god-mode surface the scripted workload drives.
class GodWorld {
 public:
  virtual ~GodWorld() = default;

  [[nodiscard]] virtual std::size_t site_count() const = 0;
  virtual ObjectId NewObject(SiteId site, std::size_t slots) = 0;
  virtual void SetPersistentRoot(ObjectId obj) = 0;
  virtual void Wire(ObjectId source, std::size_t slot, ObjectId target) = 0;
  virtual void Unwire(ObjectId source, std::size_t slot) = 0;
  virtual void RunRound() = 0;
  virtual void Settle() = 0;
};

class SystemGodWorld final : public GodWorld {
 public:
  explicit SystemGodWorld(System& system) : system_(system) {}
  [[nodiscard]] std::size_t site_count() const override {
    return system_.site_count();
  }
  ObjectId NewObject(SiteId site, std::size_t slots) override {
    return system_.NewObject(site, slots);
  }
  void SetPersistentRoot(ObjectId obj) override {
    system_.SetPersistentRoot(obj);
  }
  void Wire(ObjectId source, std::size_t slot, ObjectId target) override {
    system_.Wire(source, slot, target);
  }
  void Unwire(ObjectId source, std::size_t slot) override {
    system_.Unwire(source, slot);
  }
  void RunRound() override { system_.RunRound(); }
  void Settle() override { system_.SettleNetwork(); }

 private:
  System& system_;
};

class SocketGodWorld final : public GodWorld {
 public:
  explicit SocketGodWorld(SocketWorld& world) : world_(world) {}
  [[nodiscard]] std::size_t site_count() const override {
    return world_.site_count();
  }
  ObjectId NewObject(SiteId site, std::size_t slots) override {
    return world_.NewObject(site, slots);
  }
  void SetPersistentRoot(ObjectId obj) override {
    world_.SetPersistentRoot(obj);
  }
  void Wire(ObjectId source, std::size_t slot, ObjectId target) override {
    world_.Wire(source, slot, target);
  }
  void Unwire(ObjectId source, std::size_t slot) override {
    world_.Unwire(source, slot);
  }
  void RunRound() override { world_.RunRound(); }
  void Settle() override { world_.SettleNetwork(); }

 private:
  SocketWorld& world_;
};

struct ScriptedChurnSpec {
  std::size_t rounds = 6;
  /// Cross-site rings created per round.
  std::size_t rings_per_round = 2;
  /// Sites a ring spans (clamped to the world's site count).
  std::size_t ring_span = 3;
  /// Local self-loop garbage objects created per round.
  std::size_t locals_per_round = 2;
  /// Per-round chance each still-tethered ring's tether is cut, turning
  /// the ring into a distributed garbage cycle.
  double cut_probability = 0.5;
  /// Extra rounds after the churn to drain in-flight verdicts. Traces are
  /// one-at-a-time per site, so several cut rings need several rounds.
  std::size_t drain_rounds = 8;
};

struct ScriptedRing {
  std::vector<ObjectId> objects;  // wired in a cycle across sites
  ObjectId tether;                // persistent root holding the ring live
  bool cut = false;               // tether cleared: the ring is garbage
};

struct ScriptedChurnResult {
  std::vector<ScriptedRing> rings;
  std::vector<ObjectId> locals;  // self-loop local garbage
  std::size_t cuts = 0;
};

/// Applies the seeded op stream to `world`. Deterministic: same seed + spec
/// => same ops in the same order, whatever the world's transport.
ScriptedChurnResult RunScriptedChurn(GodWorld& world, std::uint64_t seed,
                                     const ScriptedChurnSpec& spec);

}  // namespace dgc
