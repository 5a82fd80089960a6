// dgcsim — command-line driver for the simulated world.
//
//   dgcsim [--sites N] [--cycle W[xK]] [--hypertext D] [--churn STEPS]
//          [--rounds R] [--threshold D] [--crash S] [--batch W] [--seed S]
//          [--transport sim|socket] [--dump] [--dot] [--csv]
//   dgcsim --role site --site N --socket PATH [--snapshot PATH]
//
// Builds a world, runs collection rounds, prints a system summary (and
// optionally per-site tables or a Graphviz export of the final graph).
//
// Under --transport socket every site is its own OS process: the
// coordinator re-execs this binary with `--role site`, and the site role
// runs the frame loop in net/site_host.h against the coordinator's
// Unix-domain socket. --batch, --hypertext, --dump, --dot and --csv need the
// in-process world and are rejected there (exit 2). The site role is spawned
// by the supervisor — users never type it — but it is a plain CLI so `ps`
// output and core dumps read sensibly.
//
// Examples:
//   dgcsim --sites 4 --cycle 3x2 --rounds 20 --dump
//   dgcsim --sites 4 --hypertext 16 --rounds 30
//   dgcsim --sites 3 --churn 60 --rounds 10 --dot > world.dot
//   dgcsim --sites 4 --cycle 2 --crash 1 --rounds 15
//   dgcsim --sites 4 --cycle 3 --rounds 20 --csv > series.csv
//   dgcsim --sites 4 --cycle 3 --rounds 12 --transport socket --crash 1
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/inspect.h"
#include "core/metrics.h"
#include "core/system.h"
#include "net/site_host.h"
#include "net/socket_world.h"
#include "workload/builders.h"
#include "workload/churn.h"
#include "workload/scripted.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--sites N] [--cycle W[xK]] [--hypertext D] "
               "[--churn STEPS]\n"
               "          [--rounds R] [--threshold D] [--crash S] "
               "[--batch W] [--seed S]\n"
               "          [--transport sim|socket] [--dump] [--dot] [--csv]\n"
               "       %s --role site --site N --socket PATH "
               "[--snapshot PATH]\n"
               "  --transport socket runs each site as its own OS process\n"
               "  (deterministic at the protocol level; default sim).\n"
               "  --churn runs under both: the transactional driver under\n"
               "  sim, the scripted generator over the socket god-mode\n"
               "  surface. --role site is the process the socket\n"
               "  coordinator spawns — not for interactive use.\n",
               argv0, argv0);
  return 2;
}

/// The site half of --transport socket: parses only the flags the
/// coordinator's supervisor appends and hands off to the frame loop.
int RunSiteRole(int argc, char** argv) {
  dgc::SiteHostOptions options;
  bool have_site = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "dgcsim: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--role") {
      next();  // dispatched on before we got here
    } else if (arg == "--site") {
      options.site = static_cast<dgc::SiteId>(
          std::strtoul(next(), nullptr, 10));
      have_site = true;
    } else if (arg == "--socket") {
      options.socket_path = next();
    } else if (arg == "--snapshot") {
      options.snapshot_path = next();
    } else {
      std::fprintf(stderr, "dgcsim: unknown site-role option '%s'\n",
                   arg.c_str());
      return 2;
    }
  }
  if (!have_site || options.socket_path.empty()) {
    std::fprintf(stderr,
                 "dgcsim: --role site needs --site N and --socket PATH\n");
    return 2;
  }
  return dgc::RunSiteProcess(options);
}

/// The coordinator half of --transport socket. The in-process drivers
/// (System, workload builders, DescribeSystem) cannot host real site
/// processes, so this runs the canonical paper demo over SocketWorld's
/// god-mode surface instead: a cross-site ring whose tether is cut —
/// distributed garbage only back tracing collects — with --crash mapped
/// to a real kill -9 plus supervised restart.
int RunSocketCoordinator(const char* argv0, std::size_t sites,
                         std::size_t cycle_sites, std::size_t cycle_objects,
                         std::size_t churn_steps, std::size_t rounds,
                         dgc::Distance threshold, int crash_site,
                         std::uint64_t seed) {
  using namespace dgc;
  SocketWorldOptions options;
  options.site_count = sites;
  options.collector.suspicion_threshold = threshold;
  options.collector.estimated_cycle_length =
      static_cast<Distance>(cycle_sites > 0 ? cycle_sites + 2 : 8);
  options.seed = seed;
  options.site_exec_argv = {argv0};
  SocketWorld world(std::move(options));
  std::printf("transport: socket (%zu site processes, state in %s)\n", sites,
              world.state_dir().c_str());

  std::vector<ObjectId> ring;
  if (cycle_sites > 0) {
    for (std::size_t k = 0; k < cycle_sites; ++k) {
      for (std::size_t j = 0; j < cycle_objects; ++j) {
        ring.push_back(world.NewObject(static_cast<SiteId>(k % sites), 2));
      }
    }
    for (std::size_t k = 0; k < ring.size(); ++k) {
      world.Wire(ring[k], 0, ring[(k + 1) % ring.size()]);
    }
    const ObjectId tether = world.NewObject(0, 2);
    world.SetPersistentRoot(tether);
    world.Wire(tether, 0, ring.front());
    world.Unwire(tether, 0);
    std::printf(
        "built a %zu-site garbage ring (%zu objects) and cut its tether\n",
        cycle_sites, ring.size());
  }

  if (churn_steps > 0) {
    // Mutator churn against real site processes: the scripted generator
    // drives the same god-mode surface the sim-vs-socket differential uses,
    // with every random draw on the coordinator (site processes stay
    // deterministic replayers). One scripted round is roughly ten
    // transactional steps' worth of ring/local traffic.
    SocketGodWorld god(world);
    ScriptedChurnSpec churn_spec;
    churn_spec.rounds = std::max<std::size_t>(1, churn_steps / 10);
    const ScriptedChurnResult churn =
        RunScriptedChurn(god, seed, churn_spec);
    std::printf(
        "ran %zu scripted churn rounds: %zu rings, %zu locals, %zu cuts\n",
        churn_spec.rounds, churn.rings.size(), churn.locals.size(),
        churn.cuts);
  }

  const std::uint64_t before = world.TotalObjects();
  const bool crash = crash_site >= 0 &&
                     static_cast<std::size_t>(crash_site) < sites;
  if (crash && rounds > 0) {
    // Kill after the first round so traces are in flight: the supervisor
    // restarts the process, the handshake fences the old incarnation, and
    // the ring must still collect.
    world.RunRounds(1);
    world.KillSite(static_cast<SiteId>(crash_site));
    std::printf("kill -9 site %d (supervisor restarts it)\n", crash_site);
    if (rounds > 1) world.RunRounds(rounds - 1);
  } else {
    world.RunRounds(rounds);
  }
  world.SettleNetwork();

  std::printf("ran %zu rounds: %llu -> %llu objects (%llu reclaimed)\n",
              rounds, static_cast<unsigned long long>(before),
              static_cast<unsigned long long>(world.TotalObjects()),
              static_cast<unsigned long long>(world.TotalObjectsReclaimed()));
  const SocketCounters& counters = world.transport().socket_counters();
  std::printf("sockets: %llu handshakes, %llu restarts accepted, "
              "%llu reconnects, %llu step timeouts\n",
              static_cast<unsigned long long>(counters.handshakes_accepted),
              static_cast<unsigned long long>(counters.restarts_accepted),
              static_cast<unsigned long long>(counters.reconnects),
              static_cast<unsigned long long>(counters.step_timeouts));
  std::printf("incarnations:");
  for (SiteId s = 0; s < sites; ++s) {
    std::printf(" s%u=%u", static_cast<unsigned>(s), world.incarnation(s));
  }
  std::printf("\n");

  bool leaked = false;
  for (const ObjectId id : ring) {
    if (world.ObjectExists(id)) leaked = true;
  }
  if (!ring.empty()) {
    std::printf("ring: %s\n", leaked ? "LEAKED" : "collected");
  }
  return leaked ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dgc;

  // Role dispatch first: a site process must not run the coordinator
  // parse (its flag set is disjoint and appended by the supervisor).
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--role") == 0) {
      const char* role = i + 1 < argc ? argv[i + 1] : "";
      if (std::strcmp(role, "site") == 0) return RunSiteRole(argc, argv);
      std::fprintf(stderr,
                   "dgcsim: unknown role '%s' (valid roles: site; the "
                   "coordinator role is the default)\n",
                   role);
      return 2;
    }
  }

  std::size_t sites = 4;
  std::size_t cycle_sites = 0, cycle_objects = 1;
  std::size_t hypertext_docs = 0;
  std::size_t churn_steps = 0;
  std::size_t rounds = 15;
  Distance threshold = 2;
  int crash_site = -1;
  SimTime batch_window = 0;
  std::uint64_t seed = 42;
  bool dump = false, dot = false, csv = false;
  bool socket = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::exit(Usage(argv[0]));
      }
      return argv[++i];
    };
    if (arg == "--sites") {
      sites = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--cycle") {
      const char* spec = next();
      const char* x = std::strchr(spec, 'x');
      cycle_sites = std::strtoull(spec, nullptr, 10);
      cycle_objects = x != nullptr ? std::strtoull(x + 1, nullptr, 10) : 1;
    } else if (arg == "--hypertext") {
      hypertext_docs = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--churn") {
      churn_steps = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--rounds") {
      rounds = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--threshold") {
      threshold = static_cast<Distance>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--crash") {
      crash_site = std::atoi(next());
    } else if (arg == "--batch") {
      batch_window = std::strtoll(next(), nullptr, 10);
    } else if (arg == "--seed") {
      seed = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--transport") {
      const std::string mode = next();
      if (mode == "sim" || mode == "socket") {
        socket = mode == "socket";
      } else {
        std::fprintf(stderr,
                     "dgcsim: unknown transport '%s' (valid backends: sim, "
                     "socket)\n",
                     mode.c_str());
        return 2;
      }
    } else if (arg == "--dump") {
      dump = true;
    } else if (arg == "--dot") {
      dot = true;
    } else if (arg == "--csv") {
      csv = true;
    } else {
      return Usage(argv[0]);
    }
  }
  if (sites < 1 || (cycle_sites > sites)) return Usage(argv[0]);
  if (socket) {
    if (batch_window > 0 || hypertext_docs > 0 || dump || dot || csv) {
      std::fprintf(stderr,
                   "dgcsim: --batch/--hypertext/--dump/--dot/--csv need the "
                   "in-process world; use --transport sim\n");
      return 2;
    }
    return RunSocketCoordinator(argv[0], sites, cycle_sites, cycle_objects,
                                churn_steps, rounds, threshold, crash_site,
                                seed);
  }

  CollectorConfig config;
  config.suspicion_threshold = threshold;
  config.estimated_cycle_length =
      static_cast<Distance>(cycle_sites > 0 ? cycle_sites + 2 : 8);
  config.back_call_timeout = crash_site >= 0 ? 300 : 0;
  config.report_timeout = crash_site >= 0 ? 3000 : 0;
  NetworkConfig net;
  net.batch_window = batch_window;
  System system(sites, config, net, seed);
  Rng rng(seed);

  if (cycle_sites > 0) {
    workload::BuildCycle(system, {.sites = cycle_sites,
                                  .objects_per_site = cycle_objects});
    std::printf("built a %zu-site garbage ring (%zu objects)\n", cycle_sites,
                cycle_sites * cycle_objects);
  }
  if (hypertext_docs > 0) {
    workload::HypertextSpec spec;
    spec.sites = sites;
    spec.documents = hypertext_docs;
    workload::BuildHypertextWeb(system, spec, rng);
    std::printf("built a hypertext web of %zu documents (half rooted)\n",
                hypertext_docs);
  }
  if (churn_steps > 0) {
    workload::ChurnDriver driver(system, rng.Fork());
    workload::ChurnSpec spec;
    spec.steps = churn_steps;
    driver.Run(spec);
    std::printf("ran %zu transactional churn steps\n", churn_steps);
  }
  if (crash_site >= 0 && static_cast<std::size_t>(crash_site) < sites) {
    system.network().SetSiteDown(static_cast<SiteId>(crash_site), true);
    std::printf("site %d is DOWN\n", crash_site);
  }

  const std::size_t before = system.TotalObjects();
  MetricsRecorder recorder;
  recorder.Capture(system);
  recorder.CaptureRounds(system, rounds);
  std::printf("ran %zu rounds: %zu -> %zu objects\n\n", rounds, before,
              system.TotalObjects());

  std::fputs(DescribeSystem(system).c_str(), stdout);
  const std::string safety = system.CheckSafety();
  std::printf("safety: %s\n", safety.empty() ? "OK" : safety.c_str());

  if (dump) {
    std::printf("\n");
    for (SiteId s = 0; s < sites; ++s) {
      std::fputs(DescribeSite(system.site(s)).c_str(), stdout);
    }
  }
  if (dot) {
    std::fputs(ToDot(system).c_str(), stdout);
  }
  if (csv) {
    std::fputs(recorder.ToCsv().c_str(), stdout);
  }
  return safety.empty() ? 0 : 1;
}
