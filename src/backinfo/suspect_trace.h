// Computing outsets of suspected inrefs (Section 5).
//
// A plain forward trace cannot compute inref-to-outref reachability because
// it scans each object once (Figure 4). The paper gives two remedies:
//
//   * IndependentOutsetTracer (§5.1): trace from each suspected inref with
//     its own color. Complete but may retrace objects — O(ni * n) worst case.
//   * BottomUpOutsetComputer (§5.2): one Tarjan-style depth-first traversal
//     that finds strongly connected components and assigns every member of a
//     component its leader's outset; each object is traced exactly once.
//
// Both are templates over an Env policy that answers, for the *current*
// local trace, whether a local object was marked clean and whether an outref
// is clean, and that records suspect-marked objects so the sweep retains
// them. Clean objects are "black": never entered; clean outrefs are excluded
// from outsets (Section 4.2 limits back tracing to suspected iorefs).
#pragma once

#include <algorithm>
#include <cstdint>
#include <set>
#include <span>
#include <vector>

#include "backinfo/outset_store.h"
#include "common/check.h"
#include "common/ids.h"
#include "store/heap.h"

namespace dgc {

struct SuspectTraceStats {
  std::uint64_t objects_traced = 0;  // distinct objects entered
  std::uint64_t object_visits = 0;   // entries incl. re-traversals (§5.1 only)
  std::uint64_t edges_scanned = 0;
};

/// BottomUpOutsetComputer's working storage: a side array indexed by heap
/// slot, the DFS frames and the SCC stack. An owner that runs one computer
/// per trace keeps one scratch for all of them, so no trace zero-fills the
/// array or regrows the stacks. Visit marks keep counting up across
/// computers, and each computer's first mark is its stamp: an entry marked
/// below it was written by an earlier trace and reads as unvisited.
struct BottomUpScratch {
  struct NodeState {
    std::uint32_t mark = 0;  // visit order (the paper's Mark counter)
    std::uint32_t low = 0;   // Tarjan lowlink (the paper's Leader)
    OutsetStore::OutsetId outset = OutsetStore::kEmpty;
    bool on_stack = false;
    bool done = false;  // component completed; outset is final
  };
  struct Frame {
    std::uint64_t index;
    std::size_t next_slot = 0;
    std::uint64_t child = 0;
    bool awaiting_child = false;
  };

  std::vector<NodeState> nodes;  // indexed by heap slot
  std::vector<Frame> frames;
  std::vector<std::uint64_t> scc_stack;
  std::uint32_t last_mark = 0;  // the last mark any computer handed out
};

/// Section 5.2: single-pass, SCC-aware, memoized-union outset computation.
/// Call TraceFrom once per suspected inref, in increasing distance order;
/// state persists across calls so shared subgraphs are traced once.
template <typename Env>
class BottomUpOutsetComputer {
 public:
  /// A computer for one trace, working in `scratch` (see BottomUpScratch).
  BottomUpOutsetComputer(const Heap& heap, OutsetStore& store, Env& env,
                         BottomUpScratch& scratch)
      : heap_(heap), store_(store), env_(env), site_(heap.site()),
        s_(scratch) {
    // Dense per-slot side array instead of a hash map: object indices encode
    // (generation << 32) | (slot + 1) — the heap's slot idiom — so the low
    // half minus one addresses a flat vector directly. Slots are never
    // recycled while a local trace runs, so keying by slot alone is exact
    // for this computer's lifetime (one trace). The array only grows: a
    // stale entry costs nothing, since it reads as unvisited.
    if (s_.nodes.size() < heap.slot_capacity()) {
      s_.nodes.resize(heap.slot_capacity());
    }
    // This trace visits each live object at most once. When its marks could
    // overflow, start the count again over a cleared array.
    if (s_.nodes.size() > UINT32_MAX - s_.last_mark) {
      s_.nodes.assign(s_.nodes.size(), BottomUpScratch::NodeState{});
      s_.last_mark = 0;
    }
    first_mark_ = s_.last_mark + 1;
    // A trace that a failed check cut short leaves its stacks behind.
    s_.frames.clear();
    s_.scc_stack.clear();
  }

  /// A computer with working storage of its own. (Only the reference is
  /// bound before own_scratch_ is constructed; it is first used after.)
  BottomUpOutsetComputer(const Heap& heap, OutsetStore& store, Env& env)
      : BottomUpOutsetComputer(heap, store, env, own_scratch_) {}

  BottomUpOutsetComputer(const BottomUpOutsetComputer&) = delete;
  BottomUpOutsetComputer& operator=(const BottomUpOutsetComputer&) = delete;

  /// Returns the outset (of suspected outrefs) locally reachable from the
  /// object `root` (the target of a suspected inref).
  OutsetStore::OutsetId TraceFrom(ObjectId root) {
    DGC_CHECK(root.site == site_);
    if (env_.ObjectIsCleanMarked(root)) return OutsetStore::kEmpty;
    if (const NodeState* ns = Find(root.index)) {
      DGC_CHECK(ns->done);  // the SCC stack is empty between top-level calls
      return ns->outset;
    }
    RunDfs(root.index);
    return StateOf(root.index).outset;
  }

  [[nodiscard]] const SuspectTraceStats& stats() const { return stats_; }

 private:
  using NodeState = BottomUpScratch::NodeState;
  using Frame = BottomUpScratch::Frame;

  /// Null when this trace has not visited the object.
  NodeState* Find(std::uint64_t index) {
    const std::size_t slot = Heap::SlotOfIndex(index);
    if (slot >= s_.nodes.size() || s_.nodes[slot].mark < first_mark_) {
      return nullptr;
    }
    return &s_.nodes[slot];
  }

  NodeState& StateOf(std::uint64_t index) {
    const std::size_t slot = Heap::SlotOfIndex(index);
    DGC_DCHECK(slot < s_.nodes.size() && s_.nodes[slot].mark >= first_mark_);
    return s_.nodes[slot];
  }

  void Visit(std::uint64_t index) {
    const std::size_t slot = Heap::SlotOfIndex(index);
    if (slot >= s_.nodes.size()) s_.nodes.resize(slot + 1);
    const std::uint32_t mark = ++s_.last_mark;
    s_.nodes[slot] = NodeState{mark, mark, OutsetStore::kEmpty, true, false};
    s_.scc_stack.push_back(index);
    ++stats_.objects_traced;
    ++stats_.object_visits;
    env_.OnSuspectMarked(ObjectId{site_, index});
  }

  void RunDfs(std::uint64_t root_index) {
    std::vector<Frame>& frames = s_.frames;
    std::vector<std::uint64_t>& scc_stack = s_.scc_stack;
    Visit(root_index);
    frames.push_back(Frame{root_index});

    while (!frames.empty()) {
      Frame& f = frames.back();
      // A child Visit may grow the dense array and move it, so re-find every
      // iteration and never hold this reference across the push below.
      NodeState& ns = StateOf(f.index);

      if (f.awaiting_child) {
        const NodeState& cs = StateOf(f.child);
        ns.outset = store_.Union(ns.outset, cs.outset);
        // Unconditional min is safe: a completed child component's lowlink
        // is its leader's mark, which is greater than any mark still on the
        // stack below it.
        ns.low = std::min(ns.low, cs.low);
        f.awaiting_child = false;
      }

      const std::span<const ObjectId> slots =
          heap_.Slots(ObjectId{site_, f.index});
      bool descended = false;
      while (f.next_slot < slots.size()) {
        const ObjectId z = slots[f.next_slot++];
        if (!z.valid()) continue;
        ++stats_.edges_scanned;
        if (z.site != site_) {
          // Remote reference: a suspected outref joins the outset; clean
          // outrefs are skipped ("if z is clean continue loop").
          if (!env_.OutrefIsClean(z)) ns.outset = store_.Add(ns.outset, z);
          continue;
        }
        if (env_.ObjectIsCleanMarked(z)) continue;  // black, never entered
        if (NodeState* zs = Find(z.index)) {
          if (zs->on_stack) {
            // Back edge into the current component: lowlink update only.
            // z is a DFS ancestor, so its outset will subsume ours when the
            // component's leader completes; no union needed here.
            ns.low = std::min(ns.low, zs->mark);
          } else {
            DGC_CHECK(zs->done);
            ns.outset = store_.Union(ns.outset, zs->outset);
          }
          continue;
        }
        // Tree edge: descend.
        Visit(z.index);
        f.child = z.index;
        f.awaiting_child = true;
        frames.push_back(Frame{z.index});
        descended = true;
        break;
      }
      if (descended) continue;

      // All slots scanned. If this node is its component's leader, pop the
      // component and give every member the leader's (complete) outset.
      if (ns.low == ns.mark) {
        for (;;) {
          const std::uint64_t member = scc_stack.back();
          scc_stack.pop_back();
          NodeState& ms = StateOf(member);
          ms.outset = ns.outset;
          ms.on_stack = false;
          ms.done = true;
          if (member == f.index) break;
        }
      }
      frames.pop_back();
    }
    DGC_CHECK(scc_stack.empty());
  }

  BottomUpScratch own_scratch_;
  const Heap& heap_;
  OutsetStore& store_;
  Env& env_;
  SiteId site_;
  BottomUpScratch& s_;
  std::uint32_t first_mark_ = 1;  // this trace's stamp (BottomUpScratch)
  SuspectTraceStats stats_;
};

/// Section 5.1: the straightforward technique — an independent trace per
/// suspected inref, each with its own color. Used as the ablation baseline
/// for bench_backinfo_cost and as a cross-check oracle in property tests.
template <typename Env>
class IndependentOutsetTracer {
 public:
  IndependentOutsetTracer(const Heap& heap, Env& env)
      : heap_(heap), env_(env), site_(heap.site()) {}

  /// Returns the sorted set of suspected outrefs locally reachable from
  /// `root`. Marks every reached object suspect in the Env.
  std::vector<ObjectId> TraceFrom(ObjectId root) {
    DGC_CHECK(root.site == site_);
    std::set<ObjectId> outset;
    if (env_.ObjectIsCleanMarked(root)) return {};
    std::set<std::uint64_t> color;  // this trace's private mark color
    std::vector<std::uint64_t> stack{root.index};
    color.insert(root.index);
    while (!stack.empty()) {
      const std::uint64_t index = stack.back();
      stack.pop_back();
      ++stats_.object_visits;
      if (global_seen_.insert(index).second) {
        ++stats_.objects_traced;
        env_.OnSuspectMarked(ObjectId{site_, index});
      }
      for (const ObjectId z : heap_.Slots(ObjectId{site_, index})) {
        if (!z.valid()) continue;
        ++stats_.edges_scanned;
        if (z.site != site_) {
          if (!env_.OutrefIsClean(z)) outset.insert(z);
          continue;
        }
        if (env_.ObjectIsCleanMarked(z)) continue;
        if (color.insert(z.index).second) stack.push_back(z.index);
      }
    }
    return {outset.begin(), outset.end()};
  }

  [[nodiscard]] const SuspectTraceStats& stats() const { return stats_; }

 private:
  const Heap& heap_;
  Env& env_;
  SiteId site_;
  std::set<std::uint64_t> global_seen_;
  SuspectTraceStats stats_;
};

}  // namespace dgc
