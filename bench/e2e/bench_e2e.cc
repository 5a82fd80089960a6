// bench_e2e: one workload of the end-to-end benchmark, in one process.
//
//   bench_e2e --workload=<hypertext|scale|churn|socket> [--seed=N]
//             [--seconds=S | --units=N] [--traced] [--smoke]
//
// A run repeats a fixed-size *unit* of its workload (one hypertext web, one
// scale world, one churn world, one socket world) until the timed phases
// end at the unit boundary nearest to --seconds (at least one unit), or
// exactly --units times.
// Unit i is generated from seed * 1000 + i, so a unit's exact counters
// (messages, reclaimed objects, rounds, census) repeat bit for bit in any
// run that reaches it, traced or not. Each unit has a set-up phase (world
// construction, not timed into throughput), a timed phase, and checks run
// after the timed phase against the god-mode oracles.
//
// Untraced runs measure the end-to-end metrics. --traced runs the same
// units with spans around the calls into each layer (tracer.h) and reports
// per-layer metrics; run.py compares the two runs' exact counters and wall
// times. The last line of stdout is one JSON object; FAIL lines go to
// stderr and the exit code is 1 when any check fails.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/system.h"
#include "net/socket_world.h"
#include "net/wire.h"
#include "tracer.h"
#include "workload/builders.h"
#include "workload/churn.h"
#include "workload/scale.h"
#include "workload/scripted.h"

#ifndef DGC_BENCH_BUILD_TYPE
#define DGC_BENCH_BUILD_TYPE ""
#endif

namespace dgc::bench_e2e {
namespace {

// --- Options -----------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::size_t units = 0;  // 0: run until `seconds` of timed phases
  bool traced = false;
  bool smoke = false;
  /// Flips one object's fate in the socket census before it is compared with
  /// the sim replay, so the harness's own self-test can watch the check fail.
  bool inject_census_mismatch = false;
  std::string state_dir = "bench_e2e_state";
  std::string trace_out;
};

constexpr std::size_t kSmokeUnits = 2;

int Usage() {
  std::fprintf(stderr,
               "usage: bench_e2e --workload=<hypertext|scale|churn|socket> "
               "[--seed=N] [--seconds=S | --units=N] [--traced] [--smoke] "
               "[--state-dir=DIR] [--trace-out=FILE] "
               "[--inject-census-mismatch]\n");
  return 2;
}

bool ParseOptions(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg.resize(eq);
    }
    const bool flag = arg == "--traced" || arg == "--smoke" ||
                      arg == "--inject-census-mismatch";
    if (!flag && value.empty()) {
      if (i + 1 >= argc) return false;
      value = argv[++i];
    }
    try {
      if (arg == "--workload") {
        opt.workload = value;
      } else if (arg == "--seed") {
        opt.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (arg == "--units") {
        opt.units = std::stoull(value);
      } else if (arg == "--state-dir") {
        opt.state_dir = value;
      } else if (arg == "--trace-out") {
        opt.trace_out = value;
      } else if (arg == "--traced") {
        opt.traced = true;
      } else if (arg == "--smoke") {
        opt.smoke = true;
      } else if (arg == "--inject-census-mismatch") {
        opt.inject_census_mismatch = true;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return opt.workload == "hypertext" || opt.workload == "scale" ||
         opt.workload == "churn" || opt.workload == "socket";
}

// --- Helpers -----------------------------------------------------------------

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Linear-interpolated quantile (q in [0, 1]); 0 for no samples.
double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] +
         (samples[hi] - samples[lo]) * (pos - static_cast<double>(lo));
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Peak resident set of this process (VmHWM) in MiB.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

double CpuSeconds(int who) {
  rusage usage{};
  getrusage(who, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

/// Confines this process, and the site processes it forks afterwards, to the
/// CPU it is running on. Returns false when the kernel refuses.
bool PinToCurrentCpu() {
  const int cpu = sched_getcpu();
  if (cpu < 0) return false;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0;
}

/// The collector tuning every workload starts from. These are the values
/// bench::DefaultConfig() has in bench/bench_util.h; they are fixed here so
/// that tuning the other benches cannot silently change this benchmark.
CollectorConfig BenchConfig() {
  CollectorConfig config;
  config.suspicion_threshold = 2;
  config.estimated_cycle_length = 4;
  config.back_threshold_increment = 2;
  return config;
}

/// One persistent root per site fanning out to `per_site` leaves (the
/// standing live heap that local traces must mark every round).
void AddRootedLiveData(System& system, std::size_t per_site) {
  for (SiteId s = 0; s < system.site_count(); ++s) {
    const ObjectId root = system.NewObject(s, per_site);
    system.SetPersistentRoot(root);
    for (std::size_t i = 0; i < per_site; ++i) {
      system.Wire(root, i, system.NewObject(s, 0));
    }
  }
}

template <typename T, typename... Ts>
constexpr bool kIsOneOf = (std::is_same_v<T, Ts> || ...);

Layer LayerOf(const Payload& payload) {
  return std::visit(
      [](const auto& msg) {
        using T = std::decay_t<decltype(msg)>;
        if constexpr (std::is_same_v<T, UpdateMsg>) {
          return Layer::kRefsUpdate;
        } else if constexpr (kIsOneOf<T, InsertMsg, InsertAckMsg>) {
          return Layer::kRefsInsert;
        } else if constexpr (kIsOneOf<T, BackLocalCallMsg, BackRemoteCallMsg,
                                      BackReplyMsg, BackReportMsg,
                                      BackCallBatchMsg>) {
          return Layer::kBacktrace;
        } else if constexpr (kIsOneOf<T, FetchMsg, FetchReplyMsg, CommitMsg,
                                      CommitAckMsg, PinReleaseMsg,
                                      MutatorReadMsg, MutatorReadReplyMsg,
                                      MutatorWriteMsg, MutatorWriteAckMsg>) {
          return Layer::kMutator;
        } else {
          return Layer::kOtherHandler;
        }
      },
      payload);
}

// --- Run state ---------------------------------------------------------------

/// Counters read from a System before and after a timed phase.
struct SystemCounters {
  std::uint64_t traces = 0;
  std::uint64_t objects_marked = 0;
  std::uint64_t trace_ns = 0;
  std::uint64_t mark_ns = 0;
  std::uint64_t quiescent_skips = 0;
  std::uint64_t slot_grows = 0;
  std::uint64_t msgs = 0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t reclaimed = 0;
  std::uint64_t traces_started = 0;
  std::uint64_t traces_garbage = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;

  static SystemCounters Read(const System& system) {
    SystemCounters c;
    for (SiteId s = 0; s < system.site_count(); ++s) {
      const SiteStats& stats = system.site(s).stats();
      c.traces += stats.local_traces;
      c.objects_marked += stats.objects_marked;
      c.trace_ns += stats.trace_wall_ns;
      c.mark_ns += stats.mark_wall_ns;
      c.quiescent_skips += stats.quiescent_skips;
      c.slot_grows += stats.table_slot_grows;
    }
    c.msgs = system.network().stats().inter_site_sent;
    c.wire_bytes = system.network().stats().wire_bytes;
    c.reclaimed = system.TotalObjectsReclaimed();
    const BackTracerStats bt = system.AggregateBackTracerStats();
    c.traces_started = bt.traces_started;
    c.traces_garbage = bt.traces_completed_garbage;
    c.cache_hits = bt.cache_hits;
    c.cache_misses = bt.cache_misses;
    return c;
  }

  /// Adds `after - before` field by field.
  void AddDelta(const SystemCounters& after, const SystemCounters& before) {
    traces += after.traces - before.traces;
    objects_marked += after.objects_marked - before.objects_marked;
    trace_ns += after.trace_ns - before.trace_ns;
    mark_ns += after.mark_ns - before.mark_ns;
    quiescent_skips += after.quiescent_skips - before.quiescent_skips;
    slot_grows += after.slot_grows - before.slot_grows;
    msgs += after.msgs - before.msgs;
    wire_bytes += after.wire_bytes - before.wire_bytes;
    reclaimed += after.reclaimed - before.reclaimed;
    traces_started += after.traces_started - before.traces_started;
    traces_garbage += after.traces_garbage - before.traces_garbage;
    cache_hits += after.cache_hits - before.cache_hits;
    cache_misses += after.cache_misses - before.cache_misses;
  }
};

/// What one unit measured.
struct UnitRecord {
  double setup_s = 0.0;
  double timed_s = 0.0;
  std::uint64_t ops = 0;
  std::uint64_t msgs = 0;       // inter-site messages sent in the timed phase
  std::uint64_t reclaimed = 0;  // objects reclaimed in the timed phase
  std::uint64_t garbage = 0;    // garbage units created: objects or cycles
  std::uint64_t failed = 0;     // left uncollected, or census mismatches
  std::vector<double> round_ms;
  double rounds_to_clean = 0.0;  // hypertext
  double ttc_p50 = 0.0;          // scale
  double ttc_p99 = 0.0;
  std::uint64_t ttc_samples = 0;
  /// Counters that must repeat exactly for this unit in every run.
  std::vector<std::uint64_t> exact;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct RunState {
  explicit RunState(Options options)
      : opt(std::move(options)), tracer(opt.traced) {}

  Options opt;
  Tracer tracer;
  std::vector<UnitRecord> units;
  std::vector<std::string> failures;

  // Per-layer accumulators (traced runs), summed over the units.
  SystemCounters layers;
  std::array<std::uint64_t, kLayerCount> handler_msgs{};
  std::size_t slot_capacity = 0;
  std::vector<double> txn_us;
  std::vector<double> build_op_us;
  std::uint64_t socket_rounds = 0;
  std::uint64_t socket_steps = 0;
  std::uint64_t socket_timeouts = 0;
  std::uint64_t socket_late = 0;
  double socket_round_s = 0.0;
  double coord_cpu_s = 0.0;
  double sites_cpu_s = 0.0;
  std::uint64_t snapshot_bytes = 0;
  double snapshot_slowdown = 0.0;
  std::uint64_t wire_envs = 0;
  std::uint64_t wire_bytes = 0;
  double encode_ns = 0.0;
  double decode_ns = 0.0;

  void Fail(const std::string& reason) {
    std::fprintf(stderr, "FAIL %s %s\n", opt.workload.c_str(), reason.c_str());
    failures.push_back(reason);
  }

  /// Installs the delivery interposer that times each handler by payload
  /// kind (traced runs only). It calls exactly what the registered handler
  /// would: Site::HandleMessage on the destination.
  void InterposeHandlers(System& system) {
    if (!opt.traced) return;
    system.network().set_dispatcher([this, &system](Envelope&& envelope) {
      const Layer layer = LayerOf(envelope.payload);
      ++handler_msgs[static_cast<std::size_t>(layer)];
      Tracer::Scope span(tracer, PayloadKindName(envelope.payload.index()),
                         layer);
      system.site(envelope.to).HandleMessage(envelope);
    });
  }

  /// Restores direct delivery once a timed phase is over, so that quiesce
  /// and oracle traffic after it opens no spans.
  static void EndInterposing(System& system) {
    system.network().set_dispatcher(nullptr);
  }

  void NoteSlotCapacity(const System& system) {
    slot_capacity = std::max(slot_capacity,
                             system.AggregateHeapOccupancy().slot_capacity);
  }

  void CheckOracles(const System& system, const char* when) {
    if (std::string v = system.CheckSafety(); !v.empty()) {
      Fail(std::string("safety ") + when + ": " + v);
    }
    if (std::string v = system.CheckCompleteness(); !v.empty()) {
      Fail(std::string("completeness ") + when + ": " + v);
    }
  }
};

/// Runs units until the time budget (or the requested count) is spent. A
/// timed run stops at the unit boundary nearest to the budget: it skips a
/// unit that would, on average, overshoot by more than it falls short now.
/// So a run of long units (one scale world) stays one unit long.
void RunUnits(RunState& run,
              const std::function<UnitRecord(std::size_t)>& unit) {
  double spent = 0.0;
  for (std::size_t i = 0;; ++i) {
    if (run.opt.smoke) {
      if (i >= kSmokeUnits) break;
    } else if (run.opt.units > 0) {
      if (i >= run.opt.units) break;
    } else if (i > 0 && spent + spent / static_cast<double>(2 * i) >=
                            run.opt.seconds) {
      break;
    }
    run.tracer.set_op(i);
    run.units.push_back(unit(i));
    spent += run.units.back().timed_s;
    if (!run.failures.empty()) break;
  }
}

std::uint64_t UnitSeed(const RunState& run, std::size_t unit) {
  return run.opt.seed * 1000 + unit;
}

// --- hypertext ---------------------------------------------------------------
//
// The paper's motivating workload: a web of documents whose unrooted half is
// one tangle of long inter-site cycles, all garbage from the start. Rounds
// run until the last garbage object is gone.

constexpr std::size_t kHypertextMaxRounds = 200;

UnitRecord HypertextUnit(RunState& run, std::size_t index) {
  const std::uint64_t seed = UnitSeed(run, index);
  const auto setup_start = Clock::now();
  CollectorConfig config = BenchConfig();
  config.suspicion_threshold = 3;
  config.estimated_cycle_length = 16;  // webs form long cycles
  workload::HypertextSpec spec;
  spec.sites = run.opt.smoke ? 4 : 8;
  spec.documents = run.opt.smoke ? 64 : 2048;
  spec.sections_per_document = 3;
  spec.links_per_document = 3;
  spec.rooted_fraction = 0.5;
  System system(spec.sites, config, NetworkConfig{}, seed);
  Rng rng(seed);
  workload::BuildHypertextWeb(system, spec, rng);
  run.InterposeHandlers(system);
  UnitRecord record;
  record.setup_s = SecondsSince(setup_start);
  const std::size_t live = system.ComputeLiveSet().size();
  const std::size_t garbage = system.TotalObjects() - live;

  const SystemCounters before = SystemCounters::Read(system);
  const auto timed_start = Clock::now();
  std::size_t rounds = 0;
  {
    Tracer::Scope timed(run.tracer, "timed", Layer::kUnattributed);
    while (system.TotalObjects() > live && rounds < kHypertextMaxRounds) {
      const auto round_start = Clock::now();
      if (run.opt.traced) {
        // System::RunRound, call by call.
        Tracer::Scope round(run.tracer, "round", Layer::kUnattributed);
        for (SiteId s = 0; s < system.site_count(); ++s) {
          Site& site = system.site(s);
          if (!site.trace_in_flight()) {
            TraceResult result;
            {
              Tracer::Scope span(run.tracer, "localgc.trace", Layer::kLocalgc);
              result = site.ComputeLocalTrace();
            }
            Tracer::Scope span(run.tracer, "core.commit", Layer::kCore);
            site.CommitLocalTrace(std::move(result));
          }
          Tracer::Scope span(run.tracer, "net.settle", Layer::kNet);
          system.SettleNetwork();
        }
      } else {
        system.RunRound();
      }
      record.round_ms.push_back(SecondsSince(round_start) * 1e3);
      ++rounds;
    }
  }
  record.timed_s = SecondsSince(timed_start);
  const SystemCounters after = SystemCounters::Read(system);
  RunState::EndInterposing(system);
  run.layers.AddDelta(after, before);
  run.NoteSlotCapacity(system);

  const std::size_t left = system.TotalObjects() - live;
  run.CheckOracles(system, ("after web " + std::to_string(index)).c_str());
  if (left > 0) {
    run.Fail("web " + std::to_string(index) + ": " + std::to_string(left) +
             " garbage objects left after " + std::to_string(rounds) +
             " rounds");
  }
  record.ops = garbage - left;
  record.msgs = after.msgs - before.msgs;
  record.reclaimed = after.reclaimed - before.reclaimed;
  record.garbage = garbage;
  record.failed = left;
  record.rounds_to_clean = static_cast<double>(rounds);
  record.exact = {rounds, after.msgs - before.msgs,
                  after.reclaimed - before.reclaimed,
                  after.traces_started - before.traces_started, garbage, left};
  return record;
}

// --- scale -------------------------------------------------------------------
//
// The open-loop scale engine: a power-law topology over 100 sites, request/
// reply rings spawned and severed on their own clock while staggered rounds
// overlap. The driver runs one round period per call, so each call is one
// round sample; Quiesce then collects every severed ring.

struct ScaleSize {
  std::size_t sites;
  std::size_t objects_per_site;
  std::size_t periods;
};

ScaleSize ScaleSizeFor(const Options& opt) {
  return opt.smoke ? ScaleSize{10, 200, 4} : ScaleSize{100, 10'000, 12};
}

constexpr SimTime kScaleRoundPeriod = 500;

UnitRecord ScaleUnit(RunState& run, std::size_t index) {
  const std::uint64_t seed = UnitSeed(run, index);
  const ScaleSize size = ScaleSizeFor(run.opt);
  const auto setup_start = Clock::now();
  System system(size.sites, BenchConfig(), NetworkConfig{}, seed);
  workload::ScaleTopologySpec topo;
  topo.sites = size.sites;
  topo.objects_per_site = size.objects_per_site;
  topo.seed = seed;
  workload::InstantiateScaleTopology(system,
                                     workload::BuildScaleTopology(topo));
  workload::ScaleDriverSpec drive;
  drive.duration = kScaleRoundPeriod;
  drive.mean_interarrival = 5;
  drive.mean_lifetime = 400;
  drive.round_period = kScaleRoundPeriod;
  drive.round_stagger = 3;
  drive.seed = seed;
  workload::ScaleDriver driver(system, drive);
  run.InterposeHandlers(system);
  UnitRecord record;
  record.setup_s = SecondsSince(setup_start);

  const SystemCounters before = SystemCounters::Read(system);
  const auto timed_start = Clock::now();
  bool quiesced = false;
  {
    Tracer::Scope timed(run.tracer, "timed", Layer::kUnattributed);
    for (std::size_t p = 0; p < size.periods; ++p) {
      const auto round_start = Clock::now();
      Tracer::Scope span(run.tracer, "scale.period", Layer::kUnattributed);
      driver.Run();
      record.round_ms.push_back(SecondsSince(round_start) * 1e3);
    }
    Tracer::Scope span(run.tracer, "scale.quiesce", Layer::kUnattributed);
    quiesced = driver.Quiesce();
  }
  record.timed_s = SecondsSince(timed_start);
  const SystemCounters after = SystemCounters::Read(system);
  RunState::EndInterposing(system);
  run.layers.AddDelta(after, before);
  // The local traces run inside the driver, out of the benchmark's reach;
  // their time comes from the sites' own trace clocks.
  run.tracer.Reattribute(
      Layer::kLocalgc,
      static_cast<std::int64_t>(after.trace_ns - before.trace_ns));
  run.NoteSlotCapacity(system);

  const workload::ScaleDriverStats& stats = driver.stats();
  if (!quiesced) {
    run.Fail("unit " + std::to_string(index) + ": " +
             std::to_string(driver.backlog()) +
             " severed rings not collected by Quiesce");
  }
  // Quiesce stops once every severed ring is gone; finish the topology's own
  // garbage before the completeness oracle's verdict counts. Each oracle
  // walks the whole million-object heap, so none runs twice on one state.
  std::string incomplete = system.CheckCompleteness();
  for (int i = 0; i < 20 && !incomplete.empty(); ++i) {
    system.RunRound();
    incomplete = system.CheckCompleteness();
  }
  const std::string when = " after unit " + std::to_string(index) + ": ";
  if (std::string v = system.CheckSafety(); !v.empty()) {
    run.Fail("safety" + when + v);
  }
  if (!incomplete.empty()) run.Fail("completeness" + when + incomplete);

  record.ops = stats.mutations;
  record.msgs = after.msgs - before.msgs;
  record.reclaimed = after.reclaimed - before.reclaimed;
  record.garbage = stats.cohorts_severed;
  record.failed = driver.backlog();
  const LatencyReservoir& ttc = driver.time_to_collect();
  record.ttc_p50 = static_cast<double>(ttc.Quantile(0.5));
  record.ttc_p99 = static_cast<double>(ttc.Quantile(0.99));
  record.ttc_samples = ttc.count();
  record.exact = {stats.mutations,
                  stats.cohorts_severed,
                  stats.cohorts_collected,
                  ttc.count(),
                  static_cast<std::uint64_t>(ttc.Quantile(0.5)),
                  static_cast<std::uint64_t>(ttc.Quantile(0.99)),
                  after.msgs - before.msgs,
                  after.reclaimed - before.reclaimed};
  return record;
}

// --- churn -------------------------------------------------------------------
//
// Transactional mutator churn beside collection: each transaction blocks
// until its commit is acknowledged, and a staggered round follows every
// fifth one, over a large rooted heap that every local trace must mark.

struct ChurnSize {
  std::size_t sites;
  std::size_t live_per_site;
  std::size_t transactions;
};

ChurnSize ChurnSizeFor(const Options& opt) {
  return opt.smoke ? ChurnSize{4, 100, 200} : ChurnSize{8, 5'000, 10'000};
}

constexpr std::size_t kChurnRoundEvery = 5;
constexpr SimTime kChurnStagger = 7;

/// System::RunRoundStaggered, with each site's trace split into its compute
/// and commit halves so both can be timed.
void TracedStaggeredRound(System& system, Tracer& tracer, SimTime stagger) {
  const SimTime base = system.now();
  SimTime offset = 0;
  for (SiteId s = 0; s < system.site_count(); ++s) {
    Site* site = &system.site(s);
    system.SchedulerFor(s).At(base + offset, [site, &tracer] {
      if (site->trace_in_flight()) return;
      TraceResult result;
      {
        Tracer::Scope span(tracer, "localgc.trace", Layer::kLocalgc);
        result = site->ComputeLocalTrace();
      }
      Tracer::Scope span(tracer, "core.commit", Layer::kCore);
      site->CommitLocalTrace(std::move(result));
    });
    offset += stagger;
  }
  Tracer::Scope span(tracer, "net.settle", Layer::kNet);
  system.SettleNetwork();
}

UnitRecord ChurnUnit(RunState& run, std::size_t index) {
  const std::uint64_t seed = UnitSeed(run, index);
  const ChurnSize size = ChurnSizeFor(run.opt);
  const auto setup_start = Clock::now();
  System system(size.sites, BenchConfig(), NetworkConfig{}, seed);
  AddRootedLiveData(system, size.live_per_site);
  workload::ChurnDriver driver(system, Rng(seed));
  run.InterposeHandlers(system);
  UnitRecord record;
  record.setup_s = SecondsSince(setup_start);

  workload::ChurnSpec spec;
  spec.steps = 1;
  spec.rounds_every = 0;  // the benchmark runs (and times) the rounds
  spec.check_safety_each_step = false;  // checked after the timed phase
  const SystemCounters before = SystemCounters::Read(system);
  const auto timed_start = Clock::now();
  std::size_t rounds = 0;
  {
    Tracer::Scope timed(run.tracer, "timed", Layer::kUnattributed);
    for (std::size_t t = 0; t < size.transactions; ++t) {
      run.tracer.set_op(t);
      {
        const std::int64_t txn_start = run.opt.traced ? NowNs() : 0;
        Tracer::Scope span(run.tracer, "txn", Layer::kUnattributed);
        driver.Run(spec);
        if (run.opt.traced) {
          run.txn_us.push_back(static_cast<double>(NowNs() - txn_start) / 1e3);
        }
      }
      if (t % kChurnRoundEvery == kChurnRoundEvery - 1) {
        const auto round_start = Clock::now();
        if (run.opt.traced) {
          Tracer::Scope span(run.tracer, "round", Layer::kUnattributed);
          TracedStaggeredRound(system, run.tracer, kChurnStagger);
        } else {
          system.RunRoundStaggered(kChurnStagger);
        }
        record.round_ms.push_back(SecondsSince(round_start) * 1e3);
        ++rounds;
      }
    }
  }
  record.timed_s = SecondsSince(timed_start);
  const SystemCounters after = SystemCounters::Read(system);
  RunState::EndInterposing(system);
  run.layers.AddDelta(after, before);
  run.NoteSlotCapacity(system);

  // Outside the timed phase, since ChurnDriver::Quiesce consults the
  // completeness oracle after every round: release every client and collect
  // until no garbage is left.
  try {
    driver.Quiesce();
  } catch (const InvariantViolation& e) {
    run.Fail("unit " + std::to_string(index) + ": " + e.what());
  }
  run.CheckOracles(system, ("after unit " + std::to_string(index)).c_str());
  const std::uint64_t left =
      system.TotalObjects() - system.ComputeLiveSet().size();
  const std::uint64_t reclaimed = after.reclaimed - before.reclaimed;
  const std::uint64_t reclaimed_by_quiesce =
      system.TotalObjectsReclaimed() - after.reclaimed;
  record.ops = size.transactions;
  record.msgs = after.msgs - before.msgs;
  record.reclaimed = reclaimed;
  record.garbage = reclaimed + reclaimed_by_quiesce + left;
  record.failed = left;
  record.exact = {size.transactions, rounds, after.msgs - before.msgs,
                  reclaimed, reclaimed_by_quiesce, left};
  return record;
}

// --- socket ------------------------------------------------------------------
//
// Scripted ring churn against real site processes (fork mode, one Unix
// socket each), replayed afterwards on a sim System whose census is the
// oracle: every object's fate must match.

constexpr std::size_t kSocketSites = 4;

ScriptedChurnSpec SocketScript(const Options& opt) {
  ScriptedChurnSpec spec;
  spec.rounds = opt.smoke ? 20 : 1000;
  spec.rings_per_round = 2;
  spec.ring_span = 3;
  spec.locals_per_round = 2;
  spec.cut_probability = 0.6;
  spec.drain_rounds = 8;
  return spec;
}

/// Times every script operation against the wrapped world.
class TimedGodWorld final : public GodWorld {
 public:
  TimedGodWorld(GodWorld& inner, RunState& run, std::vector<double>& round_ms)
      : inner_(inner), run_(run), round_ms_(round_ms) {}

  [[nodiscard]] std::size_t site_count() const override {
    return inner_.site_count();
  }
  ObjectId NewObject(SiteId site, std::size_t slots) override {
    BuildOp op(*this);
    return inner_.NewObject(site, slots);
  }
  void SetPersistentRoot(ObjectId obj) override {
    BuildOp op(*this);
    inner_.SetPersistentRoot(obj);
  }
  void Wire(ObjectId source, std::size_t slot, ObjectId target) override {
    BuildOp op(*this);
    inner_.Wire(source, slot, target);
  }
  void Unwire(ObjectId source, std::size_t slot) override {
    BuildOp op(*this);
    inner_.Unwire(source, slot);
  }
  void RunRound() override {
    run_.tracer.set_op(++ops_);
    const auto start = Clock::now();
    {
      Tracer::Scope span(run_.tracer, "net.socket.round", Layer::kSocket);
      inner_.RunRound();
    }
    const double seconds = SecondsSince(start);
    round_ms_.push_back(seconds * 1e3);
    run_.socket_round_s += seconds;
    ++run_.socket_rounds;
    ++rounds_;
  }
  void Settle() override {
    const auto start = Clock::now();
    Tracer::Scope span(run_.tracer, "net.socket.settle", Layer::kSocket);
    inner_.Settle();
    run_.socket_round_s += SecondsSince(start);
  }

  [[nodiscard]] std::uint64_t ops() const { return ops_; }
  [[nodiscard]] std::uint64_t rounds() const { return rounds_; }

 private:
  class BuildOp {
   public:
    explicit BuildOp(TimedGodWorld& world)
        : world_(world),
          span_(world.run_.tracer, "net.socket.build_op", Layer::kSocket),
          start_(NowNs()) {
      world_.run_.tracer.set_op(++world_.ops_);
    }
    ~BuildOp() {
      if (world_.run_.opt.traced) {
        world_.run_.build_op_us.push_back(
            static_cast<double>(NowNs() - start_) / 1e3);
      }
    }
    BuildOp(const BuildOp&) = delete;
    BuildOp& operator=(const BuildOp&) = delete;

   private:
    TimedGodWorld& world_;
    Tracer::Scope span_;
    std::int64_t start_;
  };

  GodWorld& inner_;
  RunState& run_;
  std::vector<double>& round_ms_;
  std::uint64_t ops_ = 0;
  std::uint64_t rounds_ = 0;
};

/// Every scripted object's survival, in script order.
template <typename ExistsFn>
std::vector<bool> Census(const ScriptedChurnResult& script,
                         const ExistsFn& exists) {
  std::vector<bool> fates;
  for (const ScriptedRing& ring : script.rings) {
    for (const ObjectId obj : ring.objects) fates.push_back(exists(obj));
    fates.push_back(exists(ring.tether));
  }
  for (const ObjectId obj : script.locals) fates.push_back(exists(obj));
  return fates;
}

std::uint64_t RingsCollected(const ScriptedChurnResult& script,
                             const std::vector<bool>& fates) {
  std::uint64_t collected = 0;
  std::size_t at = 0;
  for (const ScriptedRing& ring : script.rings) {
    bool gone = true;
    for (std::size_t k = 0; k < ring.objects.size(); ++k) {
      gone &= !fates[at + k];
    }
    at += ring.objects.size() + 1;
    if (ring.cut && gone) ++collected;
  }
  return collected;
}

std::uint64_t HashFates(const std::vector<bool>& fates) {
  std::uint64_t hash = 1469598103934665603ULL;  // FNV-1a
  for (const bool fate : fates) {
    hash = (hash ^ (fate ? 1U : 0U)) * 1099511628211ULL;
  }
  return hash;
}

/// A unit's socket and snapshot directory, removed however the unit ends
/// (after the SocketWorld declared later has stopped its sites).
struct StateDir {
  explicit StateDir(std::string dir) : path(std::move(dir)) {
    std::filesystem::create_directories(path);
  }
  ~StateDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  StateDir(const StateDir&) = delete;
  StateDir& operator=(const StateDir&) = delete;

  std::string path;
};

std::uint64_t DirectoryBytes(const std::string& dir) {
  std::uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) bytes += entry.file_size(ec);
  }
  return bytes;
}

/// Encodes and decodes every captured envelope, repeating the pass until
/// enough time has accumulated for a stable per-envelope figure.
void TimeWireCodec(RunState& run, const std::vector<Envelope>& envelopes) {
  if (envelopes.empty()) return;
  constexpr std::int64_t kMinNs = 50'000'000;
  std::int64_t encode_ns = 0;
  std::int64_t decode_ns = 0;
  std::uint64_t passes = 0;
  std::uint64_t bytes = 0;
  std::vector<std::vector<std::uint8_t>> encoded(envelopes.size());
  while (encode_ns + decode_ns < kMinNs || passes == 0) {
    const std::int64_t t0 = NowNs();
    for (std::size_t i = 0; i < envelopes.size(); ++i) {
      wire::WireWriter writer;
      wire::EncodeEnvelope(writer, envelopes[i]);
      encoded[i] = writer.take();
    }
    const std::int64_t t1 = NowNs();
    for (const auto& bytes_of_env : encoded) {
      wire::WireReader reader(bytes_of_env);
      Envelope decoded;
      if (!wire::DecodeEnvelope(reader, decoded) || !reader.exhausted()) {
        run.Fail("wire codec rejected an envelope it encoded");
        return;
      }
    }
    encode_ns += t1 - t0;
    decode_ns += NowNs() - t1;
    ++passes;
  }
  for (const auto& bytes_of_env : encoded) bytes += bytes_of_env.size();
  run.wire_envs += envelopes.size();
  run.wire_bytes += bytes;
  run.encode_ns += static_cast<double>(encode_ns) / static_cast<double>(passes);
  run.decode_ns += static_cast<double>(decode_ns) / static_cast<double>(passes);
}

/// One socket unit. The measured units run with per-step snapshots off:
/// with them on, a unit spends most of its wall time in the sites' snapshot
/// temp-file-and-rename on the host's disk, and the run-to-run spread follows
/// the disk rather than the system. ProbeSnapshots measures that cost.
UnitRecord SocketUnit(RunState& run, std::size_t index, bool snapshots) {
  const std::uint64_t seed = UnitSeed(run, index);
  const ScriptedChurnSpec script_spec = SocketScript(run.opt);
  // Relative to the working directory: short enough for a Unix socket path
  // however deep the checkout is.
  const StateDir state(run.opt.state_dir + "/" + std::to_string(getpid()) +
                       "-" + std::to_string(index));
  const std::string& dir = state.path;
  const double children_cpu_before = CpuSeconds(RUSAGE_CHILDREN);

  UnitRecord record;
  ScriptedChurnResult script;
  std::vector<bool> fates;
  std::uint64_t msgs = 0;
  std::uint64_t reclaimed = 0;
  std::uint64_t objects_left = 0;
  std::uint64_t ops = 0;
  std::uint64_t rounds = 0;
  {
    const auto setup_start = Clock::now();
    SocketWorldOptions options;
    options.site_count = kSocketSites;
    options.collector = BenchConfig();
    options.seed = seed;
    options.state_dir = dir;
    options.network.socket.snapshot_each_step = snapshots;
    SocketWorld world(std::move(options));
    SocketGodWorld god(world);
    TimedGodWorld timed_world(god, run, record.round_ms);
    record.setup_s = SecondsSince(setup_start);

    const SocketCounters counters_before = world.transport().socket_counters();
    const std::uint64_t msgs_before =
        world.transport().network().stats().inter_site_sent;
    const double cpu_before = CpuSeconds(RUSAGE_SELF);
    const auto timed_start = Clock::now();
    {
      Tracer::Scope timed(run.tracer, "timed", Layer::kUnattributed);
      script = RunScriptedChurn(timed_world, seed, script_spec);
    }
    record.timed_s = SecondsSince(timed_start);
    run.coord_cpu_s += CpuSeconds(RUSAGE_SELF) - cpu_before;
    const SocketCounters& counters = world.transport().socket_counters();
    run.socket_steps += counters.step_requests - counters_before.step_requests;
    run.socket_timeouts +=
        counters.step_timeouts - counters_before.step_timeouts;
    run.socket_late += counters.late_replies - counters_before.late_replies;
    run.snapshot_bytes = std::max(run.snapshot_bytes, DirectoryBytes(dir));
    msgs = world.transport().network().stats().inter_site_sent - msgs_before;
    ops = timed_world.ops();
    rounds = timed_world.rounds();

    const std::vector<ObjectId> survivors = world.SurvivingObjects();
    fates = Census(script, [&](ObjectId id) {
      return std::binary_search(survivors.begin(), survivors.end(), id);
    });
    reclaimed = world.TotalObjectsReclaimed();
    objects_left = survivors.size();
    for (SiteId s = 0; s < kSocketSites; ++s) {
      wire::QueryReplyFrame reply;
      if (world.QuerySite(s, reply)) {
        run.layers.traces_started += reply.traces_started;
        run.layers.traces_garbage += reply.traces_garbage;
      }
    }
  }  // site processes are stopped and reaped here
  run.sites_cpu_s += CpuSeconds(RUSAGE_CHILDREN) - children_cpu_before;

  // The oracle: the same script on the deterministic simulator.
  System sim(kSocketSites, BenchConfig(), NetworkConfig{}, seed);
  std::vector<Envelope> delivered;
  if (run.opt.traced) {
    sim.network().set_dispatcher([&sim, &delivered](Envelope&& envelope) {
      delivered.push_back(envelope);
      sim.site(envelope.to).HandleMessage(envelope);
    });
  }
  SystemGodWorld sim_world(sim);
  const ScriptedChurnResult sim_script =
      RunScriptedChurn(sim_world, seed, script_spec);
  const std::vector<bool> sim_fates = Census(
      sim_script, [&](ObjectId id) { return sim.ObjectExists(id); });
  TimeWireCodec(run, delivered);

  if (run.opt.inject_census_mismatch && !fates.empty()) fates[0] = !fates[0];
  std::uint64_t mismatches = 0;
  if (fates.size() != sim_fates.size()) {
    mismatches = std::max(fates.size(), sim_fates.size());
  } else {
    for (std::size_t i = 0; i < fates.size(); ++i) {
      mismatches += fates[i] != sim_fates[i] ? 1 : 0;
    }
  }
  const std::uint64_t collected = RingsCollected(script, fates);
  if (mismatches > 0) {
    run.Fail("unit " + std::to_string(index) + ": socket census differs from " +
             "the sim replay on " + std::to_string(mismatches) + " objects");
  }
  if (reclaimed != sim.TotalObjectsReclaimed() ||
      objects_left != sim.TotalObjects() ||
      collected != RingsCollected(sim_script, sim_fates)) {
    run.Fail("unit " + std::to_string(index) +
             ": socket reclaimed/left/collected counts differ from the sim "
             "replay");
  }
  if (collected != script.cuts) {
    run.Fail("unit " + std::to_string(index) + ": " +
             std::to_string(script.cuts - collected) +
             " cut rings not collected");
  }
  run.CheckOracles(
      sim, ("in the sim replay of unit " + std::to_string(index)).c_str());

  record.ops = ops;
  record.msgs = msgs;
  record.reclaimed = reclaimed;
  record.garbage = script.cuts;
  record.failed = (script.cuts - std::min(collected, script.cuts)) + mismatches;
  run.layers.msgs += msgs;
  run.layers.reclaimed += reclaimed;
  record.exact = {ops, rounds, script.cuts, collected, reclaimed, objects_left,
                  msgs, HashFates(fates)};
  return record;
}

/// Traced socket runs only: unit 0 again, untraced, without and then with
/// the per-step snapshots, so the cost of persistence on this host shows in
/// the per-layer metrics without entering the bounded end-to-end ones.
void ProbeSnapshots(RunState& run) {
  Options opt = run.opt;
  opt.traced = false;
  RunState without_snapshots(opt);
  RunState with_snapshots(opt);
  const UnitRecord off = SocketUnit(without_snapshots, 0, false);
  const UnitRecord on = SocketUnit(with_snapshots, 0, true);
  for (const RunState* probe : {&without_snapshots, &with_snapshots}) {
    run.failures.insert(run.failures.end(), probe->failures.begin(),
                        probe->failures.end());
  }
  if (on.exact != off.exact) {
    run.Fail("snapshot probe: snapshots changed the unit's outcome");
  }
  run.snapshot_bytes = with_snapshots.snapshot_bytes;
  run.snapshot_slowdown = Ratio(on.timed_s, off.timed_s);
}

// --- Reporting ---------------------------------------------------------------

void AppendNumber(std::string& out, double value) {
  char buf[64];
  const auto result = std::to_chars(buf, buf + sizeof(buf), value);
  out.append(buf, result.ptr);
}

void AppendString(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  out += '"';
}

/// Sums a per-unit field over the run's units.
template <typename T>
T SumUnits(const RunState& run, T UnitRecord::*field) {
  T total{};
  for (const UnitRecord& unit : run.units) total += unit.*field;
  return total;
}

/// Pools a per-unit quantity over the run's units.
std::vector<double> PerUnit(const RunState& run,
                            const std::function<double(const UnitRecord&)>& f) {
  std::vector<double> values;
  for (const UnitRecord& unit : run.units) values.push_back(f(unit));
  return values;
}

std::vector<double> RoundSamples(const RunState& run) {
  std::vector<double> samples;
  for (const UnitRecord& unit : run.units) {
    samples.insert(samples.end(), unit.round_ms.begin(), unit.round_ms.end());
  }
  return samples;
}

/// Median over units of per-unit throughput: robust to a transient stall in
/// one unit, where a pooled ratio is not.
double OpsPerSecond(const RunState& run) {
  return Quantile(PerUnit(run,
                          [](const UnitRecord& u) {
                            return Ratio(static_cast<double>(u.ops), u.timed_s);
                          }),
                  0.5);
}

std::vector<Metric> EndToEndMetrics(const RunState& run) {
  const std::vector<double> rounds = RoundSamples(run);
  const auto median = [&run](double UnitRecord::*field) {
    return Quantile(
        PerUnit(run, [field](const UnitRecord& u) { return u.*field; }), 0.5);
  };
  // Every workload reports every name; a metric that does not apply to the
  // workload (ttc outside scale, rounds_to_clean outside hypertext) is 0, and
  // so is a 99th percentile with fewer than ten samples beyond it (scale's
  // dozen round periods per world).
  const bool p99_resolved = rounds.size() >= 1000;
  return {
      {"setup_s", median(&UnitRecord::setup_s), "s"},
      {"ops_per_s", OpsPerSecond(run), "ops/s"},
      {"round_ms_p50", Quantile(rounds, 0.5), "ms"},
      {"round_ms_p99", p99_resolved ? Quantile(rounds, 0.99) : 0.0, "ms"},
      {"msgs_per_reclaimed",
       Ratio(static_cast<double>(SumUnits(run, &UnitRecord::msgs)),
             static_cast<double>(SumUnits(run, &UnitRecord::reclaimed))),
       "msgs/object"},
      {"peak_rss_mb", PeakRssMb(), "MiB"},
      {"fail_frac",
       Ratio(static_cast<double>(SumUnits(run, &UnitRecord::failed)),
             static_cast<double>(SumUnits(run, &UnitRecord::garbage))),
       "fraction"},
      {"rounds_to_clean", median(&UnitRecord::rounds_to_clean), "rounds"},
      {"ttc_ticks_p50", median(&UnitRecord::ttc_p50), "ticks"},
      {"ttc_ticks_p99", median(&UnitRecord::ttc_p99), "ticks"},
  };
}

std::vector<Metric> LayerMetrics(const RunState& run) {
  const Tracer& t = run.tracer;
  const auto ms = [](std::int64_t ns) { return static_cast<double>(ns) / 1e6; };
  const auto msgs = [&](Layer layer) {
    return static_cast<double>(
        run.handler_msgs[static_cast<std::size_t>(layer)]);
  };
  const SystemCounters& c = run.layers;
  const double localgc_ms = ms(t.self_ns(Layer::kLocalgc));
  const double update_ms = ms(t.self_ns(Layer::kRefsUpdate));
  const double root_ms = ms(t.root_ns());
  const double unattributed_ms = ms(t.self_ns(Layer::kUnattributed));
  return {
      {"localgc.trace_ms", localgc_ms, "ms"},
      {"localgc.mark_ms", ms(static_cast<std::int64_t>(c.mark_ns)), "ms"},
      {"localgc.objects_marked", static_cast<double>(c.objects_marked),
       "count"},
      {"localgc.ns_per_object",
       Ratio(localgc_ms * 1e6, static_cast<double>(c.objects_marked)), "ns"},
      {"localgc.traces", static_cast<double>(c.traces), "count"},
      {"localgc.quiescent_skips", static_cast<double>(c.quiescent_skips),
       "count"},
      {"core.commit_ms", ms(t.self_ns(Layer::kCore)), "ms"},
      {"core.objects_reclaimed", static_cast<double>(c.reclaimed), "count"},
      {"net.settle_ms", ms(t.total_ns(Layer::kNet)), "ms"},
      {"net.self_ms", ms(t.self_ns(Layer::kNet)), "ms"},
      {"net.msgs", static_cast<double>(c.msgs), "count"},
      {"net.wire_bytes", static_cast<double>(c.wire_bytes), "bytes"},
      {"refs.update_ms", update_ms, "ms"},
      {"refs.update_msgs", msgs(Layer::kRefsUpdate), "count"},
      {"refs.update_us_per_msg",
       Ratio(update_ms * 1e3, msgs(Layer::kRefsUpdate)), "us"},
      {"refs.insert_ms", ms(t.self_ns(Layer::kRefsInsert)), "ms"},
      {"refs.insert_msgs", msgs(Layer::kRefsInsert), "count"},
      {"mutator.handle_ms", ms(t.self_ns(Layer::kMutator)), "ms"},
      {"mutator.msgs", msgs(Layer::kMutator), "count"},
      {"mutator.txn_us_p50", Quantile(run.txn_us, 0.5), "us"},
      {"mutator.txn_us_p99", Quantile(run.txn_us, 0.99), "us"},
      {"backtrace.handle_ms", ms(t.self_ns(Layer::kBacktrace)), "ms"},
      {"backtrace.msgs", msgs(Layer::kBacktrace), "count"},
      {"backtrace.traces_started", static_cast<double>(c.traces_started),
       "count"},
      {"backtrace.useful_frac",
       Ratio(static_cast<double>(c.traces_garbage),
             static_cast<double>(c.traces_started)),
       "fraction"},
      {"backtrace.cache_hit_frac",
       Ratio(static_cast<double>(c.cache_hits),
             static_cast<double>(c.cache_hits + c.cache_misses)),
       "fraction"},
      {"store.slot_capacity", static_cast<double>(run.slot_capacity), "count"},
      {"refs.table_slot_grows", static_cast<double>(c.slot_grows), "count"},
      {"net.socket.build_op_us_p50", Quantile(run.build_op_us, 0.5), "us"},
      {"net.socket.build_op_us_p99", Quantile(run.build_op_us, 0.99), "us"},
      {"net.socket.steps_per_round",
       Ratio(static_cast<double>(run.socket_steps),
             static_cast<double>(run.socket_rounds)),
       "count"},
      {"net.socket.us_per_step",
       Ratio(run.socket_round_s * 1e6, static_cast<double>(run.socket_steps)),
       "us"},
      {"net.socket.step_timeouts", static_cast<double>(run.socket_timeouts),
       "count"},
      {"net.socket.late_replies", static_cast<double>(run.socket_late),
       "count"},
      {"net.socket.coord_cpu_frac",
       Ratio(run.coord_cpu_s, SumUnits(run, &UnitRecord::timed_s)),
       "fraction"},
      {"net.socket.sites_cpu_s", run.sites_cpu_s, "s"},
      {"net.socket.snapshot_bytes", static_cast<double>(run.snapshot_bytes),
       "bytes"},
      {"net.socket.snapshot_slowdown", run.snapshot_slowdown, "x"},
      {"net.wire.encode_ns_per_env",
       Ratio(run.encode_ns, static_cast<double>(run.wire_envs)), "ns"},
      {"net.wire.decode_ns_per_env",
       Ratio(run.decode_ns, static_cast<double>(run.wire_envs)), "ns"},
      {"net.wire.bytes_per_env",
       Ratio(static_cast<double>(run.wire_bytes),
             static_cast<double>(run.wire_envs)),
       "bytes"},
      {"unattributed_ms", unattributed_ms, "ms"},
      {"unattributed_frac", Ratio(unattributed_ms, root_ms), "fraction"},
  };
}

/// The root spans must be the units' timed phases and nothing else, and the
/// per-layer self times plus the unattributed remainder must account for
/// them: every span closed, no layer negative, both sums within 1%.
void CheckAttribution(RunState& run) {
  const Tracer& t = run.tracer;
  if (t.open_spans() != 0) {
    run.Fail(std::to_string(t.open_spans()) + " spans left open");
  }
  if (t.root_spans() != run.units.size()) {
    run.Fail(std::to_string(t.root_spans()) + " root spans for " +
             std::to_string(run.units.size()) +
             " timed phases: spans were opened outside them");
  }
  std::int64_t sum = 0;
  for (std::size_t l = 0; l < kLayerCount; ++l) {
    const std::int64_t self = t.self_ns(static_cast<Layer>(l));
    if (self < 0) {
      run.Fail("layer " + std::to_string(l) + " has negative self time");
    }
    sum += self;
  }
  const double root = static_cast<double>(t.root_ns());
  if (std::abs(static_cast<double>(sum) - root) > 0.01 * root) {
    run.Fail("layer self times sum to " + std::to_string(sum) +
             " ns, root spans to " + std::to_string(t.root_ns()) + " ns");
  }
  const double timed = SumUnits(run, &UnitRecord::timed_s) * 1e9;
  if (std::abs(root - timed) > 0.01 * timed) {
    run.Fail("root spans cover " + std::to_string(t.root_ns()) +
             " ns, the timed phases " +
             std::to_string(static_cast<std::int64_t>(timed)) + " ns");
  }
}

std::string ResultJson(const RunState& run) {
  std::string out = "{\"workload\":";
  AppendString(out, run.opt.workload);
  out += ",\"seed\":" + std::to_string(run.opt.seed);
  out += ",\"traced\":";
  out += run.opt.traced ? "true" : "false";
  out += ",\"smoke\":";
  out += run.opt.smoke ? "true" : "false";
  out += ",\"nproc\":" + std::to_string(std::thread::hardware_concurrency());
  out += ",\"build_type\":";
  AppendString(out, DGC_BENCH_BUILD_TYPE);
  out += ",\"attempted\":" + std::to_string(SumUnits(run, &UnitRecord::ops));
  out += ",\"failed\":" + std::to_string(SumUnits(run, &UnitRecord::failed));
  out += ",\"garbage_units\":" +
         std::to_string(SumUnits(run, &UnitRecord::garbage));
  out += ",\"timed_s\":";
  AppendNumber(out, SumUnits(run, &UnitRecord::timed_s));
  out += ",\"failures\":[";
  for (std::size_t i = 0; i < run.failures.size(); ++i) {
    if (i > 0) out += ',';
    AppendString(out, run.failures[i]);
  }
  out += "],\"samples\":{\"round_ms\":" +
         std::to_string(RoundSamples(run).size());
  out += ",\"ttc\":" + std::to_string(SumUnits(run, &UnitRecord::ttc_samples));
  out += ",\"txn_us\":" + std::to_string(run.txn_us.size());
  out += ",\"build_op_us\":" + std::to_string(run.build_op_us.size());
  out += ",\"spans\":" + std::to_string(run.tracer.spans());
  out += "},\"units\":[";
  for (std::size_t i = 0; i < run.units.size(); ++i) {
    const UnitRecord& unit = run.units[i];
    if (i > 0) out += ',';
    out += "{\"setup_s\":";
    AppendNumber(out, unit.setup_s);
    out += ",\"timed_s\":";
    AppendNumber(out, unit.timed_s);
    out += ",\"exact\":[";
    for (std::size_t k = 0; k < unit.exact.size(); ++k) {
      if (k > 0) out += ',';
      out += std::to_string(unit.exact[k]);
    }
    out += "]}";
  }
  out += "],\"metrics\":{";
  std::vector<Metric> metrics = EndToEndMetrics(run);
  if (run.opt.traced) {
    std::vector<Metric> layers = LayerMetrics(run);
    metrics.insert(metrics.end(), layers.begin(), layers.end());
  }
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ',';
    AppendString(out, metrics[i].name);
    out += ":{\"value\":";
    AppendNumber(out, metrics[i].value);
    out += ",\"unit\":";
    AppendString(out, metrics[i].unit);
    out += '}';
  }
  out += "}}";
  return out;
}

int Main(int argc, char** argv) {
  Options opt;
  if (!ParseOptions(argc, argv, opt)) return Usage();
  const std::string build_type = DGC_BENCH_BUILD_TYPE;
  if (build_type != "Release" && build_type != "RelWithDebInfo") {
    std::fprintf(stderr,
                 "warning: bench_e2e built as '%s'; timings are only "
                 "comparable between Release/RelWithDebInfo builds\n",
                 build_type.c_str());
  }

  RunState run(opt);
  std::function<UnitRecord(std::size_t)> unit;
  if (opt.workload == "hypertext") {
    unit = [&run](std::size_t i) { return HypertextUnit(run, i); };
  } else if (opt.workload == "scale") {
    unit = [&run](std::size_t i) { return ScaleUnit(run, i); };
  } else if (opt.workload == "churn") {
    unit = [&run](std::size_t i) { return ChurnUnit(run, i); };
  } else {
    // The coordinator and its four sites share one CPU. On the 4-CPU test
    // host, letting them spread out made identical runs differ by up to 2x,
    // with the cost of cross-CPU wake-ups set by the rest of the host; on
    // one CPU the runs are steady, and faster. The multi-core behaviour of
    // the pipelined step loop is therefore not what this workload measures.
    if (!PinToCurrentCpu()) run.Fail("cannot pin the socket workload to a CPU");
    unit = [&run](std::size_t i) { return SocketUnit(run, i, false); };
  }
  try {
    RunUnits(run, unit);
  } catch (const std::exception& e) {
    run.Fail(std::string("exception: ") + e.what());
  }
  if (run.units.empty()) run.Fail("no unit completed");
  if (opt.traced) {
    if (opt.workload == "socket" && run.failures.empty()) ProbeSnapshots(run);
    CheckAttribution(run);
    if (!opt.trace_out.empty() && !run.tracer.WriteChromeTrace(opt.trace_out)) {
      run.Fail("cannot write " + opt.trace_out);
    }
  }
  std::printf("%s\n", ResultJson(run).c_str());
  return run.failures.empty() ? 0 : 1;
}

}  // namespace
}  // namespace dgc::bench_e2e

int main(int argc, char** argv) { return dgc::bench_e2e::Main(argc, argv); }
