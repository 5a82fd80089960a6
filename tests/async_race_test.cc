// Event-level race tests: several sessions fire *asynchronous* operations at
// staggered instants while local traces and back traces run, so RPCs,
// barriers, inserts, updates and trace steps genuinely interleave (the
// blocking-style helpers elsewhere serialize each session's ops; here whole
// op graphs overlap). Safety must hold at every settle point.
#include <gtest/gtest.h>

#include <deque>

#include "core/system.h"
#include "mutator/session.h"
#include "workload/builders.h"

namespace dgc {
namespace {

CollectorConfig Config() {
  CollectorConfig config;
  config.suspicion_threshold = 3;
  config.estimated_cycle_length = 5;
  return config;
}

/// Drives one session through a script of async ops, starting the next op
/// only when the previous completes (sessions are sequential by contract)
/// but NOT settling the world in between — other sessions and collector
/// activity interleave freely.
class AsyncScript {
 public:
  AsyncScript(System& system, Session& session)
      : system_(system), session_(session) {}

  void PublishFresh(ObjectId container, std::size_t slot) {
    ops_.push_back([this, container, slot](const std::function<void()>& next) {
      if (!session_.Holds(container)) {
        // LoadRoot is cheap (local or pinned already) — run inline.
        session_.StartLoadRoot(container, [this, container, slot,
                                           next](ObjectId) {
          const ObjectId fresh = session_.Create(1);
          session_.StartWrite(container, slot, fresh, [this, fresh, next] {
            session_.Release(fresh);
            next();
          });
        });
        return;
      }
      const ObjectId fresh = session_.Create(1);
      session_.StartWrite(container, slot, fresh, [this, fresh, next] {
        session_.Release(fresh);
        next();
      });
    });
  }

  void Clear(ObjectId container, std::size_t slot) {
    ops_.push_back([this, container, slot](const std::function<void()>& next) {
      if (!session_.Holds(container)) {
        session_.StartLoadRoot(container,
                               [this, container, slot, next](ObjectId) {
                                 session_.StartWrite(container, slot,
                                                     kInvalidObject, next);
                               });
        return;
      }
      session_.StartWrite(container, slot, kInvalidObject, next);
    });
  }

  void CopyAcross(ObjectId from, std::size_t from_slot, ObjectId to,
                  std::size_t to_slot) {
    ops_.push_back([this, from, from_slot, to,
                    to_slot](const std::function<void()>& next) {
      const auto do_read = [this, from, from_slot, to, to_slot, next] {
        session_.StartRead(from, from_slot, [this, to, to_slot,
                                             next](ObjectId value) {
          if (!value.valid()) {
            next();
            return;
          }
          const auto do_write = [this, to, to_slot, value, next] {
            session_.StartWrite(to, to_slot, value, [this, value, next] {
              session_.Release(value);
              next();
            });
          };
          if (!session_.Holds(to)) {
            session_.StartLoadRoot(to,
                                   [do_write](ObjectId) { do_write(); });
          } else {
            do_write();
          }
        });
      };
      if (!session_.Holds(from)) {
        session_.StartLoadRoot(from, [do_read](ObjectId) { do_read(); });
      } else {
        do_read();
      }
    });
  }

  /// Schedules the script to begin at `start`; ops chain one after another.
  void Launch(SimTime start) {
    system_.scheduler().At(start, [this] { RunNext(); });
  }

  [[nodiscard]] bool finished() const { return ops_.empty() && !running_; }

 private:
  void RunNext() {
    if (ops_.empty()) {
      running_ = false;
      return;
    }
    running_ = true;
    auto op = std::move(ops_.front());
    ops_.pop_front();
    op([this] { RunNext(); });
  }

  System& system_;
  Session& session_;
  std::deque<std::function<void(const std::function<void()>&)>> ops_;
  bool running_ = false;
};

class AsyncRace : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AsyncRace, OverlappingSessionsWithCollectionStaySafe) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed * 2862933555777941757ULL);
  NetworkConfig net;
  net.latency = 15;
  net.latency_jitter = 10;
  System system(3, Config(), net, seed);

  std::vector<ObjectId> containers;
  for (SiteId s = 0; s < 3; ++s) {
    const ObjectId container = system.NewObject(s, 3);
    system.SetPersistentRoot(container);
    containers.push_back(container);
  }
  Session s0(system, 0, 1), s1(system, 1, 2), s2(system, 2, 3);
  AsyncScript scripts[3] = {{system, s0}, {system, s1}, {system, s2}};

  // Random scripts of ~10 ops per session.
  for (auto& script : scripts) {
    for (int i = 0; i < 10; ++i) {
      const ObjectId a = containers[rng.NextBelow(3)];
      const ObjectId b = containers[rng.NextBelow(3)];
      switch (rng.NextBelow(3)) {
        case 0:
          script.PublishFresh(a, rng.NextBelow(3));
          break;
        case 1:
          script.Clear(a, rng.NextBelow(3));
          break;
        case 2:
          script.CopyAcross(a, rng.NextBelow(3), b, rng.NextBelow(3));
          break;
      }
    }
  }
  // Launch all three staggered, plus collection rounds racing them.
  scripts[0].Launch(5);
  scripts[1].Launch(11);
  scripts[2].Launch(23);
  for (SimTime t = 40; t < 400; t += 60) {
    system.scheduler().At(t, [&system] {
      for (SiteId s = 0; s < 3; ++s) {
        if (!system.site(s).trace_in_flight()) {
          system.site(s).StartLocalTrace();
        }
      }
    });
  }
  system.SettleNetwork();
  EXPECT_TRUE(scripts[0].finished());
  EXPECT_TRUE(scripts[1].finished());
  EXPECT_TRUE(scripts[2].finished());
  EXPECT_TRUE(system.CheckSafety().empty())
      << "seed " << seed << ": " << system.CheckSafety();

  // Quiesce: drop holds, collect everything unreachable.
  s0.ReleaseAll();
  s1.ReleaseAll();
  s2.ReleaseAll();
  system.RunRounds(30);
  EXPECT_TRUE(system.CheckSafety().empty()) << system.CheckSafety();
  EXPECT_TRUE(system.CheckCompleteness().empty())
      << "seed " << seed << ": " << system.CheckCompleteness();
  EXPECT_TRUE(system.CheckReferentialIntegrity().empty())
      << "seed " << seed << ": " << system.CheckReferentialIntegrity();
}

INSTANTIATE_TEST_SUITE_P(Seeds, AsyncRace,
                         ::testing::Range<std::uint64_t>(1, 26));

}  // namespace
}  // namespace dgc
