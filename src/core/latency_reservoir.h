// Bounded-memory latency percentiles (reservoir sampling, algorithm R).
//
// An open-loop scale run observes millions of per-cycle time-to-collect
// latencies; storing them all to compute p50/p99 at the end would cost more
// memory than the heaps under test. A fixed-size uniform reservoir keeps an
// unbiased sample of everything recorded so far, so quantile estimates stay
// honest over arbitrarily long runs at O(capacity) memory.
//
// Deterministic: the replacement choices come from a seeded Rng, so two runs
// with the same seed and the same observation stream report identical
// percentiles.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/config.h"
#include "common/rng.h"

namespace dgc {

class LatencyReservoir {
 public:
  explicit LatencyReservoir(std::size_t capacity = 4096,
                            std::uint64_t seed = 0x1a7e4c7ULL)
      : capacity_(capacity), rng_(seed) {
    DGC_CHECK(capacity_ > 0);
    samples_.reserve(capacity_);
  }

  /// Records one observation. The first `capacity` observations are kept
  /// verbatim; afterwards each new observation replaces a uniformly random
  /// slot with probability capacity / seen (algorithm R).
  void Record(SimTime value) {
    ++seen_;
    if (samples_.size() < capacity_) {
      samples_.push_back(value);
      return;
    }
    const std::uint64_t slot = rng_.NextBelow(seen_);
    if (slot < capacity_) samples_[slot] = value;
  }

  /// Total observations recorded (not the retained sample count).
  [[nodiscard]] std::uint64_t count() const { return seen_; }
  /// Observations currently retained (<= capacity).
  [[nodiscard]] std::size_t size() const { return samples_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] bool empty() const { return samples_.empty(); }

  /// Nearest-rank quantile of the retained sample, q in [0, 1]. Returns 0
  /// when nothing has been recorded.
  [[nodiscard]] SimTime Quantile(double q) const {
    if (samples_.empty()) return 0;
    DGC_CHECK(q >= 0.0 && q <= 1.0);
    std::vector<SimTime> sorted = samples_;
    std::sort(sorted.begin(), sorted.end());
    const auto rank = static_cast<std::size_t>(
        q * static_cast<double>(sorted.size() - 1) + 0.5);
    return sorted[std::min(rank, sorted.size() - 1)];
  }

  void clear() {
    samples_.clear();
    seen_ = 0;
  }

 private:
  std::size_t capacity_;
  Rng rng_;
  std::vector<SimTime> samples_;
  std::uint64_t seen_ = 0;
};

}  // namespace dgc
