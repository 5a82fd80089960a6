#include "localgc/parallel_mark.h"

#include <algorithm>
#include <thread>

#include "common/check.h"
#include "localgc/trace_result.h"

namespace dgc {

ParallelMarker::ParallelMarker(Heap& heap, WorkerPool& pool,
                               std::size_t workers)
    : heap_(heap),
      pool_(pool),
      workers_(workers == 0 ? 1 : workers),
      site_(heap.site()),
      states_(workers_),
      deques_(workers_) {
  const std::size_t shards = Heap::ShardOfSlot(
      heap.slot_capacity() == 0 ? 0 : heap.slot_capacity() - 1) + 1;
  for (WorkerState& ws : states_) ws.open.resize(shards);
}

void ParallelMarker::Publish(std::size_t w, std::vector<std::uint32_t>&& batch) {
  SharedDeque& d = deques_[w];
  std::lock_guard<std::mutex> lock(d.mu);
  d.batches.push_back(std::move(batch));
  ++states_[w].published;
}

bool ParallelMarker::PopOwn(std::size_t w, std::vector<std::uint32_t>& into) {
  SharedDeque& d = deques_[w];
  std::lock_guard<std::mutex> lock(d.mu);
  if (d.batches.empty()) return false;
  into = std::move(d.batches.back());
  d.batches.pop_back();
  return true;
}

bool ParallelMarker::FlushOpen(std::size_t w, WorkerState& ws) {
  if (ws.open_shards.empty()) return false;
  SharedDeque& d = deques_[w];
  std::lock_guard<std::mutex> lock(d.mu);
  for (const std::uint32_t shard : ws.open_shards) {
    if (ws.open[shard].empty()) continue;
    d.batches.push_back(std::move(ws.open[shard]));
    ws.open[shard].clear();
    ++ws.published;
  }
  ws.open_shards.clear();
  return !d.batches.empty();
}

bool ParallelMarker::Steal(std::size_t w, std::vector<std::uint32_t>& into) {
  for (std::size_t k = 1; k < workers_; ++k) {
    SharedDeque& d = deques_[(w + k) % workers_];
    std::lock_guard<std::mutex> lock(d.mu);
    if (d.batches.empty()) continue;
    // Steal the oldest batch (FIFO end): it is the furthest from the owner's
    // working set, so contention on warm shards stays low.
    into = std::move(d.batches.front());
    d.batches.pop_front();
    return true;
  }
  return false;
}

void ParallelMarker::ScanSlot(WorkerState& ws, std::size_t w,
                              std::uint64_t slot, std::uint64_t epoch) {
  const Object& object = heap_.ObjectAtSlot(slot);
  const std::size_t my_shard = Heap::ShardOfSlot(slot);
  for (const ObjectId target : object.slots) {
    if (!target.valid()) continue;
    ++ws.edges;
    if (target.site != site_) {
      // Same first-touch bookkeeping as the sequential mark; the layer's
      // single distance is applied at merge time.
      ws.outrefs_touched.push_back(target);
      continue;
    }
    DGC_CHECK_MSG(heap_.Exists(target),
                  "no object " << target << " on site " << site_);
    const std::uint64_t tslot = Heap::SlotOfIndex(target.index);
    if (!heap_.TryClaimCleanSlot(tslot, epoch)) continue;
    ++ws.marked;
    unscanned_.fetch_add(1, std::memory_order_acq_rel);
    if (Heap::ShardOfSlot(tslot) == my_shard) {
      ws.local.push_back(static_cast<std::uint32_t>(tslot));
      if (ws.local.size() > kLocalLimit) {
        // Donate the oldest half so idle workers can steal it; the newest
        // (cache-warm) entries stay on the fast path.
        std::vector<std::uint32_t> batch(ws.local.begin(),
                                         ws.local.begin() + kBatchSlots);
        ws.local.erase(ws.local.begin(), ws.local.begin() + kBatchSlots);
        Publish(w, std::move(batch));
      }
    } else {
      const std::size_t shard = Heap::ShardOfSlot(tslot);
      std::vector<std::uint32_t>& open = ws.open[shard];
      if (open.empty()) ws.open_shards.push_back(static_cast<std::uint32_t>(shard));
      open.push_back(static_cast<std::uint32_t>(tslot));
      if (open.size() >= kBatchSlots) {
        std::vector<std::uint32_t> batch = std::move(open);
        open.clear();
        Publish(w, std::move(batch));
        // shard stays listed in open_shards; FlushOpen skips empty batches.
      }
    }
  }
  unscanned_.fetch_sub(1, std::memory_order_acq_rel);
}

void ParallelMarker::WorkerRun(std::size_t w, std::uint64_t epoch) {
  WorkerState& ws = states_[w];
  for (;;) {
    if (!ws.local.empty()) {
      const std::uint64_t slot = ws.local.back();
      ws.local.pop_back();
      ScanSlot(ws, w, slot, epoch);
      continue;
    }
    if (PopOwn(w, ws.local)) continue;
    if (FlushOpen(w, ws)) continue;  // republished; next PopOwn takes it
    if (Steal(w, ws.local)) {
      ++ws.steals;
      continue;
    }
    // No visible work anywhere. The claimed-but-unscanned count is the
    // exact termination condition: every queued or in-scan slot holds a
    // +1, and new work only appears from scans — once it reads zero it is
    // zero forever.
    if (unscanned_.load(std::memory_order_acquire) == 0) return;
    std::this_thread::yield();
  }
}

void ParallelMarker::MarkLayer(const std::vector<ObjectId>& roots,
                               Distance root_distance, std::uint64_t epoch,
                               TraceResult& result) {
  // Seed phase (caller thread): claim the layer's roots and distribute them
  // round-robin so workers start spread across the heap.
  std::uint64_t seeded_marks = 0;
  std::vector<std::uint32_t> seeds;
  seeds.reserve(roots.size());
  for (const ObjectId root : roots) {
    if (!heap_.Exists(root)) continue;  // stale app root; defensive
    const std::uint64_t slot = Heap::SlotOfIndex(root.index);
    if (!heap_.TryClaimCleanSlot(slot, epoch)) continue;
    ++seeded_marks;
    unscanned_.fetch_add(1, std::memory_order_relaxed);
    seeds.push_back(static_cast<std::uint32_t>(slot));
  }
  result.stats.objects_marked_clean += seeded_marks;
  if (seeds.empty()) return;
  ++stats_.layers;

  const std::size_t chunk =
      std::max<std::size_t>(1, (seeds.size() + workers_ - 1) / workers_);
  for (std::size_t w = 0, i = 0; i < seeds.size(); ++w, i += chunk) {
    const std::size_t end = std::min(seeds.size(), i + chunk);
    Publish(w % workers_,
            std::vector<std::uint32_t>(seeds.begin() + i, seeds.begin() + end));
  }

  pool_.RunBatch(workers_, [this, epoch](std::size_t w) { WorkerRun(w, epoch); },
                 workers_);
  DGC_DCHECK(unscanned_.load() == 0);

  // Deterministic merge, in worker order. Claim interleaving decides only
  // *which* worker holds a given count or outref touch; sums and min/union
  // merges are invariant under that partition.
  const Distance outref_distance = NextDistance(root_distance);
  for (WorkerState& ws : states_) {
    DGC_DCHECK(ws.local.empty());
    result.stats.objects_marked_clean += ws.marked;
    result.stats.edges_scanned_clean += ws.edges;
    for (const ObjectId outref : ws.outrefs_touched) {
      FindOutrefRecord(result.outrefs, outref).Reach(outref_distance, true);
    }
    stats_.steals += ws.steals;
    stats_.batches_published += ws.published;
    ws.outrefs_touched.clear();
    ws.marked = ws.edges = ws.steals = ws.published = 0;
    ws.open_shards.clear();
  }
}

std::vector<ObjectId> ParallelSweepUnmarked(const Heap& heap, WorkerPool& pool,
                                            std::size_t workers,
                                            std::uint64_t epoch) {
  const std::uint64_t used = heap.slot_capacity();
  if (used == 0) return {};
  const std::size_t shards = Heap::ShardOfSlot(used - 1) + 1;
  std::vector<std::vector<ObjectId>> parts(shards);
  pool.RunBatch(
      shards,
      [&](std::size_t s) {
        const std::uint64_t begin = s * Heap::kSlabSize;
        const std::uint64_t end =
            std::min<std::uint64_t>(used, begin + Heap::kSlabSize);
        std::vector<ObjectId>& out = parts[s];
        for (std::uint64_t slot = begin; slot < end; ++slot) {
          if (!heap.SlotLive(slot)) continue;
          if (heap.MarkEpochAtSlot(slot) != epoch) {
            out.push_back(heap.IdAtSlot(slot));
          }
        }
      },
      workers);
  std::size_t total = 0;
  for (const std::vector<ObjectId>& p : parts) total += p.size();
  std::vector<ObjectId> swept;
  swept.reserve(total);
  for (std::vector<ObjectId>& p : parts) {
    swept.insert(swept.end(), p.begin(), p.end());
  }
  return swept;
}

void ParallelFoldOutsets(
    const std::vector<std::pair<Distance, const std::vector<ObjectId>*>>& jobs,
    WorkerPool& pool, std::size_t workers, std::vector<OutrefRecord>& into) {
  if (jobs.empty()) return;
  workers = std::max<std::size_t>(1, std::min(workers, jobs.size()));
  std::vector<std::vector<OutrefRecord>> parts(workers, into);
  const std::size_t chunk = (jobs.size() + workers - 1) / workers;
  pool.RunBatch(
      workers,
      [&](std::size_t w) {
        const std::size_t begin = w * chunk;
        const std::size_t end = std::min(jobs.size(), begin + chunk);
        std::vector<OutrefRecord>& local = parts[w];
        for (std::size_t j = begin; j < end; ++j) {
          const auto& [distance, outset] = jobs[j];
          for (const ObjectId outref : *outset) {
            FindOutrefRecord(local, outref).Reach(distance, false);
          }
        }
      },
      workers);
  for (const std::vector<OutrefRecord>& part : parts) {
    for (std::size_t i = 0; i < part.size(); ++i) {
      if (part[i].reached) into[i].Reach(part[i].distance, false);
    }
  }
}

}  // namespace dgc
