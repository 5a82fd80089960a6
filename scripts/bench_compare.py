#!/usr/bin/env python3
"""Compare two google-benchmark JSON files and gate on throughput regressions.

Usage:
    bench_compare.py BASELINE.json CANDIDATE.json [--threshold 0.10]
    bench_compare.py --self-test

Compares every benchmark present in both files. A file may hold several
runs of one benchmark: google-benchmark writes one iteration row per
repetition under ``--benchmark_repetitions=N``, all sharing a ``run_name``,
and each side is summarised by the median of its runs. Gated user counters:

* ``objects_per_sec``  (higher is better) — marked-objects/sec of the local
  trace, a wall-clock rate;
* ``msgs_per_cycle``   (lower is better) — inter-site back-trace messages
  spent per collected cycle;
* ``reuse_hit_rate``   (higher is better) — local traces served from the
  local collector's reuse cache over traces run;
* ``rounds_to_collect`` (lower is better) — collection rounds until a
  garbage cycle is reclaimed under faults;
* ``time_to_collect``  (lower is better) — simulated ticks until the cycle
  is reclaimed under faults.

A simulated counter (every one but ``objects_per_sec``) fails the run when
its candidate median worsens by more than ``--threshold`` (default 10%)
relative to the baseline median. ``objects_per_sec`` follows host load, so
one run of each side says nothing: it is gated only when both sides have at
least three runs, and then verdicts are

* ``REGRESSION`` (exit 1): the candidate median is lower than the
  baseline median by more than the threshold, and every candidate run lies
  below every baseline run;
* ``UNRESOLVED`` (exit 0): the same median drop, but the two sides' ranges
  overlap, so the drop may be noise; rerun with more repetitions;
* ``ok``: the candidate median is within the threshold.

With fewer than three runs on either side ``objects_per_sec`` is reported
for information only, as is ``real_time`` for benchmarks with none of these
counters. One process runs its repetitions back to back, so a load shift
between the two processes can still separate the sides; before trusting a
REGRESSION, record alternating blocks of both and concatenate each side's
``benchmarks`` arrays into one file.

Absolute bounds, which need no baseline, live in the benches that produce
the rows: a row that breaks one fails with an error and the binary exits 1.
Tier-1 runs those rows as the ctests labelled ``microbench``
(bench/CMakeLists.txt).

A missing or malformed input JSON is a clear one-line error (exit 2, never a
Python traceback).

Exit codes: 0 = no regression, 1 = regression detected, 2 = usage/input error.
"""

import argparse
import json
import statistics
import sys


def _die(message):
    print(message, file=sys.stderr)
    sys.exit(2)


def load_benchmarks(path):
    """Return {run_name: [row, ...]} from a google-benchmark JSON file.

    Iteration rows are grouped by run_name, one row per repetition. Aggregate
    rows (mean/median/stddev) would double-count and are skipped, except a
    'mean' row for a benchmark with no iteration rows, which counts as one
    run.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        _die(f"error: cannot read {path}: {err}")
    rows = data.get("benchmarks")
    if not isinstance(rows, list):
        _die(f"error: {path} has no 'benchmarks' array "
             "(not a google-benchmark JSON file?)")
    runs, means = {}, {}
    for row in rows:
        if not isinstance(row, dict) or "name" not in row:
            _die(f"error: {path} has a benchmark row without a name "
                 "(malformed google-benchmark JSON?)")
        run_name = row.get("run_name", row["name"])
        if row.get("run_type") == "aggregate":
            if row.get("aggregate_name") == "mean":
                means[run_name] = row
            continue
        runs.setdefault(run_name, []).append(row)
    for run_name, row in means.items():
        runs.setdefault(run_name, [row])
    return runs


# Gated counters: (name, higher_is_better). The reported delta is always
# "positive = improvement", so the single threshold applies uniformly.
GATED_COUNTERS = (
    ("objects_per_sec", True),
    ("msgs_per_cycle", False),
    ("reuse_hit_rate", True),
    ("rounds_to_collect", False),
    ("time_to_collect", False),
)

# Counters measured in wall-clock time, gated only across repeated runs.
WALL_CLOCK_COUNTERS = ("objects_per_sec",)
MIN_RUNS = 3


def compare(baseline, candidate, threshold):
    """Yield (name, kind, base, cand, delta, verdict, runs) for common
    benchmarks: base and cand are the two sides' medians, delta is positive
    for an improvement, and runs is (baseline runs, candidate runs). A
    benchmark with none of the gated counters reports real_time (lower is
    better) for information."""
    for name in sorted(set(baseline) & set(candidate)):
        base_rows, cand_rows = baseline[name], candidate[name]
        emitted = False
        for counter, higher_is_better in GATED_COUNTERS + (
                ("real_time", False),):
            if counter == "real_time" and emitted:
                break
            base_vals = [float(r[counter]) for r in base_rows if counter in r]
            cand_vals = [float(r[counter]) for r in cand_rows if counter in r]
            if not base_vals or not cand_vals:
                continue
            base = statistics.median(base_vals)
            cand = statistics.median(cand_vals)
            if base <= 0:
                continue
            sign = 1 if higher_is_better else -1
            delta = sign * (cand - base) / base
            runs = (len(base_vals), len(cand_vals))
            if counter == "real_time" or (counter in WALL_CLOCK_COUNTERS and
                                          min(runs) < MIN_RUNS):
                verdict = "info"
            elif delta >= -threshold:
                verdict = "ok"
            elif counter not in WALL_CLOCK_COUNTERS or (
                    max(sign * v for v in cand_vals) <
                    min(sign * v for v in base_vals)):
                verdict = "REGRESSION"
            else:
                verdict = "UNRESOLVED"
            emitted = True
            yield name, counter, base, cand, delta, verdict, runs


def run_compare(baseline_path, candidate_path, threshold):
    baseline = load_benchmarks(baseline_path)
    candidate = load_benchmarks(candidate_path)
    common = set(baseline) & set(candidate)
    if not common:
        _die("error: no common benchmarks between the two files")

    failures, unresolved = [], []
    for name, kind, base, cand, delta, verdict, runs in compare(
            baseline, candidate, threshold):
        if verdict == "REGRESSION":
            failures.append(f"{name} ({kind})")
        elif verdict == "UNRESOLVED":
            unresolved.append(f"{name} ({kind})")
        medians = (f" [medians of {runs[0]} and {runs[1]} runs]"
                   if max(runs) > 1 else "")
        print(f"{verdict:>10}  {name}: {kind} {base:.4g} -> {cand:.4g} "
              f"({delta:+.1%}){medians}")

    if unresolved:
        print(f"\n{len(unresolved)} wall-clock counter(s) dropped more than "
              f"{threshold:.0%} in the median, but the runs overlap "
              "(rerun with more repetitions):")
        for name in unresolved:
            print(f"  {name}")
    if failures:
        print(f"\n{len(failures)} gated counter(s) regressed more than "
              f"{threshold:.0%}:")
        for name in failures:
            print(f"  {name}")
        return 1
    print(f"\nno gated-counter regression beyond {threshold:.0%} "
          f"across {len(common)} common benchmark(s)")
    return 0


# --- self test --------------------------------------------------------------

_FIXTURE_BASE = {
    "benchmarks": [
        {"name": "BM_Mark/100000", "run_type": "iteration",
         "real_time": 2.0, "objects_per_sec": 50e6},
        {"name": "BM_Sweep/100000", "run_type": "iteration",
         "real_time": 4.0, "objects_per_sec": 20e6},
        {"name": "BM_Rounds/8", "run_type": "iteration", "real_time": 9.0},
        {"name": "BM_Trace/4/4", "run_type": "iteration", "real_time": 3.0,
         "msgs_per_cycle": 20.0},
        {"name": "BM_Soak/16", "run_type": "iteration", "real_time": 5.0,
         "reuse_hit_rate": 0.8},
        {"name": "BM_FaultRecovery_GarbageRing/10", "run_type": "iteration",
         "real_time": 6.0, "rounds_to_collect": 5.0, "time_to_collect": 300.0},
    ]
}


def _repeated(name, values):
    """Rows google-benchmark writes for `name` under
    --benchmark_repetitions=len(values): one iteration row per repetition,
    then the aggregates (which the comparison skips)."""
    rows = [{"name": name, "run_name": name, "run_type": "iteration",
             "repetition_index": i, "real_time": 1.0, "objects_per_sec": v}
            for i, v in enumerate(values)]
    for aggregate in ("mean", "median", "stddev"):
        rows.append({"name": f"{name}_{aggregate}", "run_name": name,
                     "run_type": "aggregate", "aggregate_name": aggregate,
                     "real_time": 1.0, "objects_per_sec": 0.0})
    return {"benchmarks": rows}


def _self_test():
    import copy
    import os
    import tempfile

    def run_with(candidate, baseline=_FIXTURE_BASE):
        with tempfile.TemporaryDirectory() as tmp:
            base_path = os.path.join(tmp, "base.json")
            cand_path = os.path.join(tmp, "cand.json")
            with open(base_path, "w", encoding="utf-8") as fh:
                json.dump(baseline, fh)
            with open(cand_path, "w", encoding="utf-8") as fh:
                json.dump(candidate, fh)
            verdicts = {
                (name, kind): verdict
                for name, kind, _, _, _, verdict, _ in compare(
                    load_benchmarks(base_path), load_benchmarks(cand_path),
                    0.10)}
            return run_compare(base_path, cand_path, threshold=0.10), verdicts

    # Identical results: pass.
    assert run_with(copy.deepcopy(_FIXTURE_BASE))[0] == 0, \
        "identical must pass"

    # A single run of objects_per_sec is information only, whatever its dip:
    # one wall-clock run per side cannot tell a regression from host load.
    bad = copy.deepcopy(_FIXTURE_BASE)
    bad["benchmarks"][1]["objects_per_sec"] = 16e6
    code, verdicts = run_with(bad)
    assert code == 0, "a single-run objects_per_sec dip must not fail"
    assert verdicts[("BM_Sweep/100000", "objects_per_sec")] == "info"

    # Repeated runs: a 20% median drop with every candidate run below every
    # baseline run is a REGRESSION...
    base5 = _repeated("BM_Mark", [50e6, 52e6, 48e6, 51e6, 49e6])
    code, verdicts = run_with(
        _repeated("BM_Mark", [40e6, 41e6, 39e6, 40e6, 42e6]), base5)
    assert code == 1, "separated 20% drop must fail"
    assert verdicts[("BM_Mark", "objects_per_sec")] == "REGRESSION"

    # ...the same median drop with overlapping ranges is UNRESOLVED (exit 0)...
    code, verdicts = run_with(
        _repeated("BM_Mark", [40e6, 41e6, 39e6, 40e6, 49e6]), base5)
    assert code == 0, "overlapping runs must not fail"
    assert verdicts[("BM_Mark", "objects_per_sec")] == "UNRESOLVED"

    # ...a median within the threshold is ok, even when the runs separate...
    code, verdicts = run_with(
        _repeated("BM_Mark", [46e6, 47e6, 47.5e6, 46.5e6, 47e6]), base5)
    assert code == 0, "a 6% median dip must pass"
    assert verdicts[("BM_Mark", "objects_per_sec")] == "ok"

    # ...and fewer than three runs on one side is information only.
    code, verdicts = run_with(_repeated("BM_Mark", [30e6, 31e6]), base5)
    assert code == 0, "two candidate runs must not gate"
    assert verdicts[("BM_Mark", "objects_per_sec")] == "info"

    # Un-gated real_time rows never fail the run, even when slower.
    slow = copy.deepcopy(_FIXTURE_BASE)
    slow["benchmarks"][2]["real_time"] = 90.0
    code, verdicts = run_with(slow)
    assert code == 0, "real_time rows are informational"
    assert verdicts[("BM_Rounds/8", "real_time")] == "info"

    # msgs_per_cycle is lower-is-better: a 50% increase fails...
    chatty = copy.deepcopy(_FIXTURE_BASE)
    chatty["benchmarks"][3]["msgs_per_cycle"] = 30.0
    assert run_with(chatty)[0] == 1, "msgs_per_cycle increase must fail"

    # ...and a decrease passes.
    quiet = copy.deepcopy(_FIXTURE_BASE)
    quiet["benchmarks"][3]["msgs_per_cycle"] = 10.0
    assert run_with(quiet)[0] == 0, "msgs_per_cycle decrease must pass"

    # reuse_hit_rate is higher-is-better: losing trace reuse fails.
    stale = copy.deepcopy(_FIXTURE_BASE)
    stale["benchmarks"][4]["reuse_hit_rate"] = 0.4
    assert run_with(stale)[0] == 1, "reuse_hit_rate drop must fail"

    # rounds_to_collect / time_to_collect are lower-is-better: a fault-recovery
    # slowdown beyond threshold fails, a speedup passes.
    slower = copy.deepcopy(_FIXTURE_BASE)
    slower["benchmarks"][5]["time_to_collect"] = 400.0
    assert run_with(slower)[0] == 1, "time_to_collect increase must fail"
    faster = copy.deepcopy(_FIXTURE_BASE)
    faster["benchmarks"][5]["rounds_to_collect"] = 4.0
    faster["benchmarks"][5]["time_to_collect"] = 250.0
    assert run_with(faster)[0] == 0, "faster recovery must pass"

    # A missing input must degrade with a clear message and exit code 2 —
    # never a Python traceback.
    def expect_clean_exit(fn, *args):
        try:
            fn(*args)
        except SystemExit as err:
            assert err.code == 2, f"missing input must exit 2, got {err.code}"
            return
        raise AssertionError("missing input must exit via sys.exit(2)")

    missing = os.path.join(tempfile.gettempdir(), "bench_compare_no_such.json")
    assert not os.path.exists(missing)
    expect_clean_exit(run_compare, missing, missing, 0.10)

    # ...and the same for structurally malformed files.
    with tempfile.TemporaryDirectory() as tmp:
        broken = os.path.join(tmp, "broken.json")
        with open(broken, "w", encoding="utf-8") as fh:
            fh.write("{\"benchmarks\": [{\"real_time\": 1.0}]}")
        expect_clean_exit(run_compare, broken, broken, 0.10)
        not_bench = os.path.join(tmp, "not_bench.json")
        with open(not_bench, "w", encoding="utf-8") as fh:
            fh.write("{\"context\": {}}")
        expect_clean_exit(run_compare, not_bench, not_bench, 0.10)

    print("bench_compare self-test: all cases passed")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", nargs="?", help="baseline BENCH_*.json")
    parser.add_argument("candidate", nargs="?", help="candidate BENCH_*.json")
    parser.add_argument("--threshold", type=float, default=0.10,
                        help="max tolerated drop of a gated counter's "
                             "median (fraction, default 0.10)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the embedded fixture tests and exit")
    args = parser.parse_args(argv)

    if args.self_test:
        return _self_test()
    if not args.baseline or not args.candidate:
        parser.print_usage(sys.stderr)
        return 2
    return run_compare(args.baseline, args.candidate, args.threshold)


if __name__ == "__main__":
    sys.exit(main())
