#include "baselines/migration.h"

#include <algorithm>

#include "common/check.h"
#include "common/logging.h"

namespace dgc::baselines {

MigrationCollector::MigrationCollector(System& system,
                                       Distance migrate_threshold)
    : system_(system), migrate_threshold_(migrate_threshold) {
  // Consume the migration traffic (the mutation itself happens eagerly
  // below; the messages exist so the network accounts for them).
  for (SiteId s = 0; s < system_.site_count(); ++s) {
    system_.site(s).SetExtensionHandler([](const Envelope& envelope) {
      return std::holds_alternative<MigrateMsg>(envelope.payload) ||
             std::holds_alternative<PatchMsg>(envelope.payload);
    });
  }
}

std::optional<ObjectId> MigrationCollector::MigrateOneSuspect() {
  for (SiteId s = 0; s < system_.site_count(); ++s) {
    for (const auto& [obj, entry] : system_.site(s).tables().inrefs()) {
      if (entry.garbage_flagged) continue;
      if (entry.sources.empty()) continue;
      if (entry.distance() <= migrate_threshold_) continue;
      if (!system_.site(s).heap().Exists(obj)) continue;
      const SiteId destination = entry.sources.begin()->first;  // min site id
      return Migrate(obj, destination);
    }
  }
  return std::nullopt;
}

std::size_t MigrationCollector::Converge(std::size_t max_migrations) {
  std::size_t migrated = 0;
  while (migrated < max_migrations) {
    const auto moved = MigrateOneSuspect();
    if (!moved.has_value()) break;
    ++migrated;
    // Let local traces digest the move (trim stale outrefs, re-derive
    // distances) before picking the next suspect.
    system_.RunRound();
  }
  return migrated;
}

ObjectId MigrationCollector::Migrate(ObjectId victim, SiteId destination) {
  DGC_CHECK(destination != victim.site);
  Site& origin = system_.site(victim.site);
  Site& dest = system_.site(destination);
  Heap& origin_heap = origin.heap();

  // Suspects are never roots or mutator-held.
  DGC_CHECK_MSG(!origin.IsRootObject(victim),
                "migrating a rooted object " << victim);

  const InrefEntry* old_inref = origin.tables().FindInref(victim);
  DGC_CHECK(old_inref != nullptr);
  const Distance carried_distance = old_inref->distance();
  const std::vector<ObjectId> slots = origin_heap.Get(victim).slots;

  // 1. Ship the object (one migrate message with the whole payload).
  ++stats_.migrations;
  ++stats_.migrate_messages;
  stats_.bytes_moved += 16 + 8 * slots.size();
  system_.network().Send(victim.site, destination,
                         MigrateMsg{{MigrateMsg::MovedObject{victim, slots}}});

  const ObjectId new_id = dest.heap().Allocate(slots.size());
  for (std::size_t i = 0; i < slots.size(); ++i) {
    dest.heap().SetSlot(new_id, i, slots[i]);
  }

  // 2. Patch every holder. One patch message per site that held the
  // reference (the "must patch references to migrated objects" cost).
  for (SiteId s = 0; s < system_.site_count(); ++s) {
    Site& holder = system_.site(s);
    bool patched = false;
    std::vector<std::pair<ObjectId, std::size_t>> fixes;
    holder.heap().ForEach([&](ObjectId id, const Object& object) {
      for (std::size_t i = 0; i < object.slots.size(); ++i) {
        if (object.slots[i] == victim) fixes.emplace_back(id, i);
      }
    });
    for (const auto& [id, slot] : fixes) {
      holder.heap().SetSlot(id, slot, new_id);
      patched = true;
    }
    if (patched && s != destination) {
      ++stats_.patch_messages;
      system_.network().Send(destination, s, PatchMsg{victim, new_id});
    }
    // Drop the stale outref for the old identity.
    if (OutrefEntry* outref = holder.tables().FindOutref(victim)) {
      DGC_CHECK_MSG(outref->pin_count == 0,
                    "migrating an object pinned at site " << s);
      holder.tables().RemoveOutref(victim);
    }
  }
  origin.tables().RemoveInref(victim);
  origin_heap.Free(victim);

  // 3. Rebuild table entries for the new identity: every remote holder gets
  // an outref, and the destination's inref carries the old distance so the
  // suspect stays suspected (convergence continues next pass).
  for (SiteId s = 0; s < system_.site_count(); ++s) {
    if (s == destination) continue;
    Site& holder = system_.site(s);
    bool holds = false;
    holder.heap().ForEach([&](ObjectId, const Object& object) {
      for (const ObjectId ref : object.slots) {
        if (ref == new_id) holds = true;
      }
    });
    if (!holds) continue;
    auto [outref, created] = holder.tables().EnsureOutref(new_id);
    if (created) outref->distance = carried_distance;
    dest.tables().AddInrefSource(new_id, s, carried_distance);
  }
  // 4. The moved object's own outgoing references: remote ones need an
  // outref at the destination and a source entry at their owners.
  for (const ObjectId ref : slots) {
    if (!ref.valid() || ref.site == destination) continue;
    auto [outref, created] = dest.tables().EnsureOutref(ref);
    if (created) outref->distance = carried_distance;
    const InrefEntry* target_inref =
        system_.site(ref.site).tables().FindInref(ref);
    const Distance source_distance =
        target_inref != nullptr ? target_inref->distance() : carried_distance;
    system_.site(ref.site).tables().AddInrefSource(ref, destination,
                                                   source_distance);
  }
  system_.SettleNetwork();

  DGC_LOG_DEBUG("migration: " << victim << " -> " << new_id << " at site "
                              << destination);
  return new_id;
}

}  // namespace dgc::baselines
