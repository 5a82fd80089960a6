// Intra-site parallel marking, sweeping, and distance refolding.
//
// The slab heap's dense slot layout turns one site's forward trace into
// shardable work: storage slots partition into slab shards that never move
// while a trace computes, so a mark worker can own a shard-local batch of
// claimed slots and scan it without touching another worker's cache lines.
//
// ParallelMarker runs the clean-marking phase as a work-stealing traversal:
//
//   * each logical worker owns a deque of shard-local slot batches plus a
//     same-shard fast-path stack; claims landing in another shard are routed
//     into an open batch for that shard and published to the worker's deque
//     when full ("push to the owner shard"), where idle workers steal them;
//   * clean stamps are claimed with first-claim-wins relaxed atomics
//     (Heap::TryClaimCleanSlot); a slot is scanned exactly once, by whichever
//     worker won it;
//   * the traversal is driven in *distance layers*: all roots of one
//     estimated distance mark together, layers run in increasing distance
//     order with a barrier between them. Within a layer every claim carries
//     the same outref distance, so the min-merge of per-worker outref
//     touches is independent of claim interleaving — the merged TraceResult
//     is bit-identical to the sequential mark no matter the thread count or
//     schedule (see ClassifyReuse-style reasoning in local_collector.cc).
//
// ParallelSweepUnmarked and ParallelFoldOutsets are the two embarrassingly
// parallel passes: the sweep partitions slots by slab and splices per-slab
// reclaim lists back in slot order; the fold partitions suspected-inref
// outsets and min-merges per-worker copies of the outref column in worker
// order.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <utility>
#include <vector>

#include "common/distance.h"
#include "common/ids.h"
#include "common/worker_pool.h"
#include "store/heap.h"

namespace dgc {

struct OutrefRecord;
struct TraceResult;

struct ParallelMarkStats {
  std::uint64_t steals = 0;          // batches taken from another worker
  std::uint64_t batches_published = 0;  // batches pushed to deques
  std::uint64_t layers = 0;          // distance layers marked
};

class ParallelMarker {
 public:
  /// `workers` logical workers (>= 1); they run on `pool` via a
  /// caller-participates batch, so `workers` may exceed the pool's thread
  /// count — excess workers simply find the traversal finished.
  ParallelMarker(Heap& heap, WorkerPool& pool, std::size_t workers);

  /// Marks everything reachable from `roots` — all roots estimated at
  /// `root_distance` — that is not already clean-stamped for `epoch`.
  /// Folds objects-marked / edges-scanned counts, first-touch outref
  /// distances (NextDistance(root_distance), min-merged), and clean-outref
  /// touches into `result`, exactly as the sequential MarkCleanFrom would.
  /// Call once per distinct root distance, in increasing order.
  void MarkLayer(const std::vector<ObjectId>& roots, Distance root_distance,
                 std::uint64_t epoch, TraceResult& result);

  [[nodiscard]] const ParallelMarkStats& stats() const { return stats_; }

 private:
  /// Slots per published batch; also the donation size when a worker's
  /// fast-path stack overflows.
  static constexpr std::size_t kBatchSlots = 256;
  static constexpr std::size_t kLocalLimit = 2 * kBatchSlots;

  struct WorkerState {
    /// Same-shard fast path (LIFO, cache-warm).
    std::vector<std::uint32_t> local;
    /// Open (not yet published) batch per destination shard.
    std::vector<std::vector<std::uint32_t>> open;
    std::vector<std::uint32_t> open_shards;  // shards with a non-empty batch
    /// Per-layer accumulators, merged deterministically after the join.
    std::vector<ObjectId> outrefs_touched;
    std::uint64_t marked = 0;
    std::uint64_t edges = 0;
    std::uint64_t steals = 0;
    std::uint64_t published = 0;
  };

  struct SharedDeque {
    std::mutex mu;
    std::deque<std::vector<std::uint32_t>> batches;
  };

  void WorkerRun(std::size_t w, std::uint64_t epoch);
  void ScanSlot(WorkerState& ws, std::size_t w, std::uint64_t slot,
                std::uint64_t epoch);
  bool PopOwn(std::size_t w, std::vector<std::uint32_t>& into);
  bool FlushOpen(std::size_t w, WorkerState& ws);
  bool Steal(std::size_t w, std::vector<std::uint32_t>& into);
  void Publish(std::size_t w, std::vector<std::uint32_t>&& batch);

  Heap& heap_;
  WorkerPool& pool_;
  const std::size_t workers_;
  const SiteId site_;
  std::vector<WorkerState> states_;
  std::vector<SharedDeque> deques_;
  std::atomic<std::int64_t> unscanned_{0};
  ParallelMarkStats stats_;
};

/// Phase-3 sweep, parallel over slabs: returns the ids of live slots whose
/// mark stamp is not `epoch`, in storage-slot order (per-slab lists spliced
/// back in slab order), exactly as Heap::ForEachWithEpochs would yield them.
std::vector<ObjectId> ParallelSweepUnmarked(const Heap& heap, WorkerPool& pool,
                                            std::size_t workers,
                                            std::uint64_t epoch);

/// Level-1 incremental reuse, parallel over suspects: folds each job's
/// outset into the outref column `into` at the job's (already
/// NextDistance'd) distance with a min-merge. Partitioned across `workers`;
/// per-worker column copies are merged in worker order, so the result is
/// independent of scheduling.
void ParallelFoldOutsets(
    const std::vector<std::pair<Distance, const std::vector<ObjectId>*>>& jobs,
    WorkerPool& pool, std::size_t workers, std::vector<OutrefRecord>& into);

}  // namespace dgc
