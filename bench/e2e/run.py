#!/usr/bin/env python3
"""Runs the end-to-end benchmark (bench/e2e).

Builds bench_e2e from source (into .bench_build/e2e, once) and runs it.

  run.py --workload W --seed N --seconds S --trace 0|1
      One measured run of one workload. With --trace 0 it reports the
      end-to-end metrics named in BENCHMARK.json; with --trace 1 it also
      runs the same units traced and reports the per-layer metrics. Prints
      `workload metric value unit` lines, then as its last line a JSON object
      with the keys correct, attempted, failed and metrics.

  run.py [--seed N] [--out BENCH_e2e.json]
      The suite: per workload, REPEATS untraced runs of a fixed number of
      units plus one traced run of the same units. Prints every metric
      (median over the repeats), writes medians and quartiles to --out and
      each traced run's spans to BENCH_e2e_<workload>.trace.json.

  run.py --compare A.json B.json
      One row per workload and end-to-end metric; exits 1 when a median got
      worse by more than the metric's bound.

  run.py --self-test
      Checks the comparator on embedded fixtures, and that an injected
      socket census mismatch fails a run.

Exit codes: 0 success, 1 a correctness check or comparison failed, 2 the
benchmark could not be built or its input could not be read.
"""

import argparse
import fcntl
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BENCH_DIR = ROOT / "bench" / "e2e"
BUILD_DIR = ROOT / ".bench_build" / "e2e"
BINARY = BUILD_DIR / "bench_e2e"
# Relative to ROOT, where the binary runs: keeps Unix socket paths short.
STATE_DIR = ".bench_build/e2e-state"
SPEC_PATH = ROOT / "BENCHMARK.json"

WORKLOADS = ("hypertext", "scale", "churn", "socket")
# Untraced runs per workload in the suite.
REPEATS = 5
# Units per suite run: a fixed count, so the exact metrics repeat bit for bit
# between repeats. On a 4-CPU host that is about ten seconds of timed work,
# except for scale, whose one world takes about 26 seconds.
SUITE_UNITS = {"hypertext": 100, "scale": 1, "churn": 10, "socket": 12}
# Metrics that repeat exactly for a fixed seed and unit count. The suite
# checks them across repeats and the comparator gives them a bound of 0.
EXACT = {"msgs_per_reclaimed", "rounds_to_clean", "ttc_ticks_p50",
         "ttc_ticks_p99", "fail_frac"}
# Suite-only end-to-end metrics: unit, the only workloads they apply to, and
# bound. BENCHMARK.json lists them with the unbounded per-layer metrics,
# because they are 0 on some workload or, for round_ms_p99, too noisy between
# single runs to bound there.
SUITE_ONLY = {
    "round_ms_p99": ("ms", ("hypertext", "churn", "socket"), 0.25),
    "rounds_to_clean": ("rounds", ("hypertext",), 0.0),
    "ttc_ticks_p50": ("ticks", ("scale",), 0.0),
    "ttc_ticks_p99": ("ticks", ("scale",), 0.0),
    "fail_frac": ("fraction", WORKLOADS, 0.0),
}
# A measured run must end within three minutes of its start, builds aside.
SINGLE_RUN_BUDGET_S = 170
SUITE_BINARY_TIMEOUT_S = 600


def fail_exit(message, code=2):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    try:
        return json.loads(SPEC_PATH.read_text())
    except (OSError, ValueError) as e:
        fail_exit(f"cannot read {SPEC_PATH.name}: {e}")


def run_quiet(cmd):
    proc = subprocess.run([str(c) for c in cmd], cwd=ROOT, capture_output=True,
                          text=True)
    if proc.returncode != 0:
        tail = (proc.stdout + proc.stderr).splitlines()[-40:]
        fail_exit("build step failed: " + " ".join(map(str, cmd)) + "\n" +
                  "\n".join(tail))


def build():
    """Configures once, then lets the build tool skip up-to-date work."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail_exit(f"no sources at {ROOT / 'src'}; run from a full checkout")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    with open(BUILD_DIR / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (BUILD_DIR / "CMakeCache.txt").exists():
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            run_quiet(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                       "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *generator])
        jobs = str(min(4, os.cpu_count() or 1))
        run_quiet(["cmake", "--build", BUILD_DIR, "-j", jobs])


def stop_group(proc):
    """Kills bench_e2e and every site process it forked, and waits for them."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.communicate()
    deadline = time.monotonic() + 5
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_binary(workload, seed, seconds=None, units=None, traced=False,
               smoke=False, extra=(), timeout=SUITE_BINARY_TIMEOUT_S):
    """Runs bench_e2e once; returns its JSON result plus `exit`."""
    cmd = [str(BINARY), f"--workload={workload}", f"--seed={seed}",
           f"--state-dir={STATE_DIR}"]
    if seconds is not None:
        cmd.append(f"--seconds={seconds}")
    if units is not None:
        cmd.append(f"--units={units}")
    if traced:
        cmd += ["--traced", f"--trace-out=BENCH_e2e_{workload}.trace.json"]
    if smoke:
        cmd.append("--smoke")
    cmd += list(extra)
    # Its own process group, so that a timeout also stops the site processes.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        stop_group(proc)
        for leftover in (ROOT / STATE_DIR).glob(f"{proc.pid}-*"):
            shutil.rmtree(leftover, ignore_errors=True)
        return {"exit": -1, "failures": [f"timed out after {timeout:.0f} s"],
                "units": [], "metrics": {}, "attempted": 0, "failed": 0}
    sys.stderr.write(stderr)
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"failures": ["no result from bench_e2e"], "units": [],
                  "metrics": {}, "attempted": 0, "failed": 0}
    result["exit"] = proc.returncode
    return result


def run_ok(result):
    return result["exit"] == 0 and not result["failures"]


def exact_mismatches(a, b):
    """Units both runs completed whose exact counters differ."""
    count = min(len(a["units"]), len(b["units"]))
    return [i for i in range(count)
            if a["units"][i]["exact"] != b["units"][i]["exact"]]


def trace_overhead(untraced_runs, traced):
    """Traced over untraced timed wall of the same units, minus one; the
    untraced wall is the median over the given runs."""
    count = len(traced["units"])
    base = statistics.median(sum(u["timed_s"] for u in r["units"][:count])
                             for r in untraced_runs)
    return traced["timed_s"] / base - 1.0 if base > 0 else 0.0


def print_fail(workload, reason):
    print(f"FAIL {workload} {reason}")


def report_failures(workload, result):
    for reason in result["failures"]:
        print_fail(workload, reason)
    if result["exit"] not in (0, 1):
        print_fail(workload, f"bench_e2e exited with {result['exit']}")


def fmt(value):
    return f"{value:.6g}"


def samples_line(workload, result):
    samples = " ".join(f"{k}={v}" for k, v in result.get("samples", {}).items())
    return (f"# {workload} units={len(result['units'])} {samples} "
            f"nproc={result.get('nproc')} build={result.get('build_type')}")


# --- One measured run ----------------------------------------------------------

def single_run(args, spec):
    deadline = time.monotonic() + SINGLE_RUN_BUDGET_S
    workload = args.workload
    e2e_names = [m["name"] for m in spec["end_to_end"]]
    layer_names = [m["name"] for m in spec["per_layer"]]
    untraced = run_binary(workload, args.seed, seconds=args.seconds,
                          timeout=deadline - time.monotonic())
    report_failures(workload, untraced)
    correct = run_ok(untraced)
    final = untraced
    metrics = dict(untraced["metrics"])
    names = e2e_names
    if args.trace:
        traced = run_binary(workload, args.seed, units=len(untraced["units"]),
                            traced=True, timeout=deadline - time.monotonic())
        report_failures(workload, traced)
        correct = correct and run_ok(traced)
        diverged = exact_mismatches(untraced, traced)
        if diverged or len(traced["units"]) != len(untraced["units"]):
            print_fail(workload, f"traced run diverged from the untraced run "
                                 f"on units {diverged}")
            correct = False
        # End-to-end figures, the unbounded ones listed among the per-layer
        # metrics included, come from the untraced run.
        metrics = {**traced["metrics"], **untraced["metrics"]}
        metrics["trace_overhead_frac"] = {
            "value": trace_overhead([untraced], traced), "unit": "fraction"}
        final = traced
        names = layer_names
    missing = [n for n in names if n not in metrics]
    if missing:
        print_fail(workload, f"bench_e2e did not report {missing}")
        correct = False
    out = {n: metrics[n] for n in names if n in metrics}
    print(samples_line(workload, final))
    for name, m in out.items():
        print(f"{workload} {name} {fmt(m['value'])} {m['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, int(final.get("attempted", 0))),
        "failed": int(final.get("failed", 0)),
        "metrics": out,
    }))
    return 0 if correct else 1


# --- The suite -----------------------------------------------------------------

def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def suite(args, spec):
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    report = {
        "seed": args.seed, "repeats": REPEATS,
        "host": {"machine": platform.machine(), "nproc": os.cpu_count()},
        "workloads": {},
    }
    ok = True
    for workload in WORKLOADS:
        units = SUITE_UNITS[workload]
        runs = []
        for _ in range(REPEATS):
            result = run_binary(workload, args.seed, units=units)
            report_failures(workload, result)
            runs.append(result)
        traced = run_binary(workload, args.seed, units=units, traced=True)
        report_failures(workload, traced)
        correct = all(run_ok(r) for r in runs + [traced])
        for i, other in enumerate(runs[1:] + [traced], start=1):
            diverged = exact_mismatches(runs[0], other)
            if diverged:
                label = "traced run" if other is traced else f"repeat {i}"
                print_fail(workload, f"{label} diverged from repeat 0 on "
                                     f"units {diverged}")
                correct = False

        metrics = {}
        names = list(e2e) + [n for n, (_, applies, _) in SUITE_ONLY.items()
                             if workload in applies]
        for name in names:
            values = [r["metrics"][name]["value"] for r in runs
                      if name in r["metrics"]]
            if not values:
                continue
            q1, median, q3 = quartiles(values)
            if name in e2e:
                unit, bound = e2e[name]["unit"], e2e[name]["bound"]
            else:
                unit, _, bound = SUITE_ONLY[name]
            if name in EXACT and len(set(values)) > 1:
                print_fail(workload, f"exact metric {name} differs between "
                                     f"repeats: {values}")
                correct = False
            metrics[name] = {
                "median": median, "q1": q1, "q3": q3, "unit": unit,
                "better": e2e.get(name, {}).get("better", "lower"),
                "bound": 0.0 if name in EXACT else bound,
                "runs": values,
            }
        # Every layer metric the traced run reports, including the socket
        # ones that BENCHMARK.json leaves out with the socket workload.
        layers = {name: m for name, m in traced["metrics"].items()
                  if name not in e2e and name not in SUITE_ONLY}
        layers["trace_overhead_frac"] = {
            "value": trace_overhead(runs, traced), "unit": "fraction"}

        print(samples_line(workload, runs[0]))
        for name, m in metrics.items():
            print(f"{workload} {name} {fmt(m['median'])} {m['unit']}")
        for name, m in layers.items():
            print(f"{workload} {name} {fmt(m['value'])} {m['unit']}")
        report["workloads"][workload] = {
            "units": units, "correct": correct,
            "attempted": runs[0].get("attempted", 0),
            "failed": max(r.get("failed", 0) for r in runs),
            "samples": runs[0].get("samples", {}),
            "build_type": runs[0].get("build_type"),
            "metrics": metrics, "layers": layers,
        }
        ok = ok and correct
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    print(f"# wrote {args.out}")
    return 0 if ok else 1


# --- Comparison ----------------------------------------------------------------

def classify(a, b):
    """Verdict for one metric: REGRESSED, improved, unchanged or unresolved."""
    sign = 1.0 if a["better"] == "lower" else -1.0
    bound = a["bound"]
    if a["median"] == b["median"]:
        change = 0.0
    elif a["median"] == 0:
        change = math.inf
    else:
        change = (b["median"] - a["median"]) / abs(a["median"])
    if sign * change > bound:
        return change, "REGRESSED"
    spread = max((m["q3"] - m["q1"]) / abs(m["median"]) if m["median"] else 0.0
                 for m in (a, b))
    if spread > bound:
        better_everywhere = all(sign * (y - x) < 0
                                for x in a["runs"] for y in b["runs"])
        return change, "improved" if better_everywhere else "unresolved"
    if -sign * change > bound:
        return change, "improved"
    return change, "unchanged"


def compare(a, b, out=sys.stdout):
    """Prints one row per shared workload and metric; True if none regressed."""
    ok = True
    print(f"{'workload':10} {'metric':20} {'A median [q1, q3]':>32} "
          f"{'B median [q1, q3]':>32} {'change':>8}  verdict", file=out)
    for workload in sorted(set(a["workloads"]) & set(b["workloads"])):
        ma = a["workloads"][workload]["metrics"]
        mb = b["workloads"][workload]["metrics"]
        for name in ma:
            if name not in mb:
                continue
            change, verdict = classify(ma[name], mb[name])
            ok = ok and verdict != "REGRESSED"
            print(f"{workload:10} {name:20} {spread_text(ma[name]):>32} "
                  f"{spread_text(mb[name]):>32} {change * 100:+7.1f}%  {verdict}",
                  file=out)
    return ok


def spread_text(m):
    return f"{fmt(m['median'])} [{fmt(m['q1'])}, {fmt(m['q3'])}]"


def load_report(path):
    try:
        report = json.loads(Path(path).read_text())
        report["workloads"]
        return report
    except (OSError, ValueError, KeyError, TypeError) as e:
        fail_exit(f"cannot read suite results {path}: {e}")


# --- Self-test -----------------------------------------------------------------

def fixture(ops, rounds=13, spread=0.01):
    def metric(median, better, bound, runs=None):
        runs = runs or [median * (1 - spread), median, median * (1 + spread)]
        q1, med, q3 = quartiles(runs)
        return {"median": med, "q1": q1, "q3": q3, "unit": "x",
                "better": better, "bound": bound, "runs": runs}
    return {"workloads": {"hypertext": {"metrics": {
        "ops_per_s": metric(ops, "higher", 0.1),
        "rounds_to_clean": metric(rounds, "lower", 0.0, [rounds] * 3),
    }}}}


def self_test():
    checks = []

    def check(name, passed):
        checks.append((name, passed))
        print(f"{'ok  ' if passed else 'FAIL'} {name}")

    sink = open(os.devnull, "w")
    base = fixture(1000.0)
    check("identical suites compare clean", compare(base, fixture(1000.0), sink))
    check("a 20% throughput drop regresses",
          not compare(base, fixture(800.0), sink))
    check("a 5% throughput drop is within the bound",
          compare(base, fixture(950.0), sink))
    check("an exact metric moving by one round regresses",
          not compare(base, fixture(1000.0, rounds=14), sink))
    wide = fixture(1050.0, spread=0.3)
    verdict = classify(base["workloads"]["hypertext"]["metrics"]["ops_per_s"],
                       wide["workloads"]["hypertext"]["metrics"]["ops_per_s"])
    check("a spread wider than the bound is unresolved, not unchanged",
          verdict[1] == "unresolved")

    build()
    spec = load_spec()
    e2e_names = {m["name"] for m in spec["end_to_end"]}
    layer_names = {m["name"] for m in spec["per_layer"]} - {"trace_overhead_frac"}
    for workload in WORKLOADS:
        plain = run_binary(workload, 1, smoke=True)
        traced = run_binary(workload, 1, smoke=True, traced=True)
        check(f"{workload}: smoke runs pass their checks",
              run_ok(plain) and run_ok(traced))
        check(f"{workload}: traced run repeats the exact counters",
              len(plain["units"]) == len(traced["units"]) > 0 and
              not exact_mismatches(plain, traced))
        check(f"{workload}: reports every metric BENCHMARK.json names",
              e2e_names <= set(plain["metrics"]) and
              layer_names <= set(traced["metrics"]))
    injected = run_binary("socket", 1, smoke=True,
                          extra=["--inject-census-mismatch"])
    check("an injected socket census mismatch fails the run",
          injected["exit"] == 1 and
          any("census" in f for f in injected["failures"]))
    failed = [name for name, passed in checks if not passed]
    print(f"self-test: {len(checks) - len(failed)}/{len(checks)} checks passed")
    return 0 if not failed else 1


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default="BENCH_e2e.json")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.compare:
        a, b = (load_report(p) for p in args.compare)
        return 0 if compare(a, b) else 1
    if args.self_test:
        return self_test()
    spec = load_spec()
    build()
    if args.workload:
        return single_run(args, spec)
    return suite(args, spec)


if __name__ == "__main__":
    sys.exit(main())
