// In-memory span recorder for the benchmark's traced runs.
//
// Spans are opened and closed around calls into the system's layers from
// the benchmark's own code (the system itself is not instrumented). Every
// span carries the layer its self time is charged to: a span's self time is
// its duration minus the time its direct children cover, so the per-layer
// self times of one root span always add up to that root's duration. Self
// times are accumulated as spans close, over every span; the first
// kMaxKeptSpans spans are also kept verbatim for the Chrome trace file.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace dgc::bench_e2e {

/// Where a span's self time is charged. kUnattributed collects the self
/// time of structural spans (the timed phase, rounds, transactions, driver
/// chunks): time spent in no instrumented layer.
enum class Layer : std::uint8_t {
  kUnattributed,
  kLocalgc,     // Site::ComputeLocalTrace
  kCore,        // Site::CommitLocalTrace
  kNet,         // System::SettleNetwork, minus what it delivers
  kRefsUpdate,  // UpdateMsg handlers
  kRefsInsert,  // InsertMsg / InsertAckMsg handlers
  kMutator,     // fetch / commit / pin / read / write handlers
  kBacktrace,   // Back* handlers
  kSocket,      // SocketWorld build ops, rounds and settles
  kOtherHandler,
  kCount,
};

inline constexpr std::size_t kLayerCount =
    static_cast<std::size_t>(Layer::kCount);

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  static constexpr std::size_t kMaxKeptSpans = 100'000;

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// Identifier stamped on spans opened from now on (unit, round or
  /// transaction number), so one operation's spans can be grouped.
  void set_op(std::uint64_t op) { op_ = op; }

  /// Opens and closes one span; does nothing when tracing is off. `name`
  /// must outlive the tracer (string literals and PayloadKindName).
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, Layer layer) : tracer_(tracer) {
      if (tracer_.enabled_) tracer_.Begin(name, layer);
    }
    ~Scope() {
      if (tracer_.enabled_) tracer_.End();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
  };

  [[nodiscard]] std::int64_t self_ns(Layer layer) const {
    return self_ns_[static_cast<std::size_t>(layer)];
  }
  /// Summed durations of the layer's spans, children included.
  [[nodiscard]] std::int64_t total_ns(Layer layer) const {
    return total_ns_[static_cast<std::size_t>(layer)];
  }
  /// Total duration of all root spans.
  [[nodiscard]] std::int64_t root_ns() const { return root_ns_; }
  [[nodiscard]] std::uint64_t root_spans() const { return root_spans_; }
  [[nodiscard]] std::uint64_t spans() const { return spans_; }
  [[nodiscard]] std::size_t open_spans() const { return stack_.size(); }

  /// Charges time measured by a counter inside an unattributed span to
  /// `layer` (used where the benchmark cannot wrap the call itself).
  void Reattribute(Layer layer, std::int64_t ns) {
    self_ns_[static_cast<std::size_t>(layer)] += ns;
    self_ns_[static_cast<std::size_t>(Layer::kUnattributed)] -= ns;
  }

  /// Writes the kept spans in Chrome trace-event format (chrome://tracing,
  /// Perfetto). Returns false when the file cannot be written.
  bool WriteChromeTrace(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    std::fprintf(out, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    const std::int64_t origin = kept_.empty() ? 0 : kept_.front().start_ns;
    for (std::size_t i = 0; i < kept_.size(); ++i) {
      const Kept& span = kept_[i];
      std::fprintf(out,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"parent\":%d,"
                   "\"op_id\":%llu}}\n",
                   i == 0 ? "" : ",", span.name,
                   static_cast<double>(span.start_ns - origin) / 1e3,
                   static_cast<double>(span.end_ns - span.start_ns) / 1e3,
                   span.parent, static_cast<unsigned long long>(span.op_id));
    }
    std::fprintf(out, "]}\n");
    return std::fclose(out) == 0;
  }

 private:
  struct Open {
    Layer layer;
    std::int64_t start_ns;
    std::int64_t child_ns;
    std::int32_t kept;  // index into kept_, or -1
  };
  struct Kept {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int32_t parent;
    std::uint64_t op_id;
  };

  void Begin(const char* name, Layer layer) {
    ++spans_;
    std::int32_t kept = -1;
    if (kept_.size() < kMaxKeptSpans) {
      kept = static_cast<std::int32_t>(kept_.size());
      kept_.push_back(Kept{name, 0, 0,
                           stack_.empty() ? -1 : stack_.back().kept, op_});
    }
    stack_.push_back(Open{layer, 0, 0, kept});
    stack_.back().start_ns = NowNs();
    if (kept >= 0) {
      kept_[static_cast<std::size_t>(kept)].start_ns = stack_.back().start_ns;
    }
  }

  void End() {
    const std::int64_t end = NowNs();
    const Open open = stack_.back();
    stack_.pop_back();
    const std::int64_t duration = end - open.start_ns;
    self_ns_[static_cast<std::size_t>(open.layer)] += duration - open.child_ns;
    total_ns_[static_cast<std::size_t>(open.layer)] += duration;
    if (stack_.empty()) {
      root_ns_ += duration;
      ++root_spans_;
    } else {
      stack_.back().child_ns += duration;
    }
    if (open.kept >= 0) kept_[static_cast<std::size_t>(open.kept)].end_ns = end;
  }

  bool enabled_;
  std::uint64_t op_ = 0;
  std::vector<Open> stack_;
  std::vector<Kept> kept_;
  std::array<std::int64_t, kLayerCount> self_ns_{};
  std::array<std::int64_t, kLayerCount> total_ns_{};
  std::int64_t root_ns_ = 0;
  std::uint64_t root_spans_ = 0;
  std::uint64_t spans_ = 0;
};

}  // namespace dgc::bench_e2e
