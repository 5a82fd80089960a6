#!/usr/bin/env python3
"""Compare two google-benchmark JSON files and gate on throughput regressions.

Usage:
    bench_compare.py BASELINE.json CANDIDATE.json [--threshold 0.10]
    bench_compare.py --self-test

Compares every benchmark present in both files. Gated user counters:

* ``objects_per_sec``  (higher is better) — marked-objects/sec of the local
  trace;
* ``msgs_per_cycle``   (lower is better) — inter-site back-trace messages
  spent per collected cycle;
* ``reuse_hit_rate``   (higher is better) — local traces served from the
  local collector's reuse cache over traces run;
* ``rounds_to_collect`` (lower is better) — collection rounds until a
  garbage cycle is reclaimed under faults;
* ``time_to_collect``  (lower is better) — simulated ticks until the cycle
  is reclaimed under faults.

Any benchmark whose candidate value worsens by more than ``--threshold``
(default 10%) relative to the baseline fails the run. Benchmarks with none
of these counters are compared on ``real_time`` and reported for
information only — wall time on shared CI hardware is too noisy to gate on.

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
import sys


def _die(message):
    print(message, file=sys.stderr)
    sys.exit(2)


def load_benchmarks(path):
    """Return {name: benchmark-dict} from a google-benchmark JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        _die(f"error: cannot read {path}: {err}")
    rows = data.get("benchmarks")
    if not isinstance(rows, list):
        _die(f"error: {path} has no 'benchmarks' array "
             "(not a google-benchmark JSON file?)")
    out = {}
    for row in rows:
        if not isinstance(row, dict) or "name" not in row:
            _die(f"error: {path} has a benchmark row without a name "
                 "(malformed google-benchmark JSON?)")
        # Aggregate rows (mean/median/stddev) would double-count; keep the
        # plain iteration rows and the 'mean' aggregate if that is all there is.
        if row.get("run_type") == "aggregate" and row.get(
                "aggregate_name") != "mean":
            continue
        out[row["name"]] = row
    return out


# Gated counters: (name, higher_is_better). The reported delta is always
# "positive = improvement", so the single threshold applies uniformly.
GATED_COUNTERS = (
    ("objects_per_sec", True),
    ("msgs_per_cycle", False),
    ("reuse_hit_rate", True),
    ("rounds_to_collect", False),
    ("time_to_collect", False),
)


def compare(baseline, candidate, threshold):
    """Yield (name, kind, base, cand, delta, gated) for common benchmarks."""
    for name in sorted(set(baseline) & set(candidate)):
        base_row, cand_row = baseline[name], candidate[name]
        emitted = False
        for counter, higher_is_better in GATED_COUNTERS:
            if counter not in base_row or counter not in cand_row:
                continue
            base = float(base_row[counter])
            cand = float(cand_row[counter])
            if base <= 0:
                continue
            if higher_is_better:
                delta = (cand - base) / base
            else:
                delta = (base - cand) / base
            emitted = True
            yield name, counter, base, cand, delta, True
        if emitted:
            continue
        if "real_time" in base_row and "real_time" in cand_row:
            base = float(base_row["real_time"])
            cand = float(cand_row["real_time"])
            if base <= 0:
                continue
            # For times, lower is better; report the rate-style delta.
            delta = (base - cand) / base
            yield name, "real_time", base, cand, delta, False


def run_compare(baseline_path, candidate_path, threshold):
    baseline = load_benchmarks(baseline_path)
    candidate = load_benchmarks(candidate_path)
    common = set(baseline) & set(candidate)
    if not common:
        _die("error: no common benchmarks between the two files")

    failures = []
    for name, kind, base, cand, delta, gated in compare(
            baseline, candidate, threshold):
        verdict = "ok"
        if gated and delta < -threshold:
            verdict = "REGRESSION"
            failures.append(f"{name} ({kind})")
        elif not gated:
            verdict = "info"
        print(f"{verdict:>10}  {name}: {kind} {base:.4g} -> {cand:.4g} "
              f"({delta:+.1%})")

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

def _self_test():
    import copy
    import os
    import tempfile

    def run_with(candidate):
        with tempfile.TemporaryDirectory() as tmp:
            base_path = os.path.join(tmp, "base.json")
            cand_path = os.path.join(tmp, "cand.json")
            with open(base_path, "w", encoding="utf-8") as fh:
                json.dump(_FIXTURE_BASE, fh)
            with open(cand_path, "w", encoding="utf-8") as fh:
                json.dump(candidate, fh)
            return run_compare(base_path, cand_path, threshold=0.10)

    # Identical results: pass.
    assert run_with(copy.deepcopy(_FIXTURE_BASE)) == 0, "identical must pass"

    # 5% dip: within the 10% budget, still passes.
    slight = copy.deepcopy(_FIXTURE_BASE)
    slight["benchmarks"][0]["objects_per_sec"] = 47.5e6
    assert run_with(slight) == 0, "5% dip must pass"

    # 20% dip in one gated counter: fails.
    bad = copy.deepcopy(_FIXTURE_BASE)
    bad["benchmarks"][1]["objects_per_sec"] = 16e6
    assert run_with(bad) == 1, "20% dip must fail"

    # Un-gated real_time rows never fail the run, even when slower.
    slow = copy.deepcopy(_FIXTURE_BASE)
    slow["benchmarks"][2]["real_time"] = 90.0
    assert run_with(slow) == 0, "real_time rows are informational"

    # msgs_per_cycle is lower-is-better: a 50% increase fails...
    chatty = copy.deepcopy(_FIXTURE_BASE)
    chatty["benchmarks"][3]["msgs_per_cycle"] = 30.0
    assert run_with(chatty) == 1, "msgs_per_cycle increase must fail"

    # ...and a decrease passes.
    quiet = copy.deepcopy(_FIXTURE_BASE)
    quiet["benchmarks"][3]["msgs_per_cycle"] = 10.0
    assert run_with(quiet) == 0, "msgs_per_cycle decrease must pass"

    # reuse_hit_rate is higher-is-better: losing trace reuse fails.
    stale = copy.deepcopy(_FIXTURE_BASE)
    stale["benchmarks"][4]["reuse_hit_rate"] = 0.4
    assert run_with(stale) == 1, "reuse_hit_rate drop must fail"

    # rounds_to_collect / time_to_collect are lower-is-better: a fault-recovery
    # slowdown beyond threshold fails, a speedup passes.
    slower = copy.deepcopy(_FIXTURE_BASE)
    slower["benchmarks"][5]["time_to_collect"] = 400.0
    assert run_with(slower) == 1, "time_to_collect increase must fail"
    faster = copy.deepcopy(_FIXTURE_BASE)
    faster["benchmarks"][5]["rounds_to_collect"] = 4.0
    faster["benchmarks"][5]["time_to_collect"] = 250.0
    assert run_with(faster) == 0, "faster recovery must pass"

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
                        help="max tolerated objects_per_sec drop "
                             "(fraction, default 0.10)")
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
