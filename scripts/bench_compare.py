#!/usr/bin/env python3
"""Compare two google-benchmark JSON files and gate on throughput regressions.

Usage:
    bench_compare.py BASELINE.json CANDIDATE.json [--threshold 0.10]
    bench_compare.py --check-fault-recovery BENCH_fault_recovery.json
    bench_compare.py --check-scale BENCH_scale.json
    bench_compare.py --check-transport BENCH_transport.json
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

``--check-fault-recovery`` gates a single BENCH_fault_recovery.json on
absolute bounds instead of a baseline: lossless rows (loss_pct == 0) must
show retransmit_overhead <= 0.01 (the reliable machinery is nearly free on a
clean network), and lossy rows must show collected == 1 with
ttc_ratio_vs_lossless <= 5.0 (collection stays finite and within 5x of the
lossless twin run).

``--check-scale`` gates a single BENCH_scale.json on absolute bounds: every
open-loop row must show the collector keeping up with the arrival rate
(cycles_collected >= 0.5x cycles_severed, end-of-run backlog <= 0.5x
severed) with a bounded time-to-collect tail (p99 <= 10000 simulated
ticks); and each flat/map table-mutation pair must show the flat table
measurably cheaper than the std::map baseline (time ratio <= 0.95). The
open-loop counters are simulation-clock values, deterministic per seed.

``--check-transport`` gates a single BENCH_transport.json on the socket
backend's correctness contract: every row must show verdicts_match == 1 with
the socket run's cycles_severed/cycles_collected/reclaimed exactly equal to
the sim run's (same seed, same garbage verdicts, same reclaim set — the
equality is the gate, always, on any host), on a non-vacuous run
(cycles_severed > 0). Wall-clock is reported, never gated.

Every gate degrades with a clear one-line error (exit 2, never a Python
traceback) when its input or baseline JSON is missing or malformed.

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


# --- fault-recovery absolute gate -------------------------------------------

# Absolute acceptance bounds for BENCH_fault_recovery.json (no baseline
# needed; a fresh checkout can gate its own run).
MAX_LOSSLESS_RETRANSMIT_OVERHEAD = 0.01
MAX_TTC_RATIO_VS_LOSSLESS = 5.0


def check_fault_recovery(path):
    """Gate BENCH_fault_recovery.json rows on absolute fault-recovery bounds.

    Lossless rows must show (nearly) no retransmit overhead; lossy rows must
    still collect, within a bounded slowdown of the lossless twin run.
    """
    rows = load_benchmarks(path)
    failures = []
    checked = 0
    for name in sorted(rows):
        row = rows[name]
        if "loss_pct" not in row:
            continue
        checked += 1
        loss = float(row["loss_pct"])
        if loss == 0.0:
            overhead = float(row.get("retransmit_overhead", 0.0))
            ok = overhead <= MAX_LOSSLESS_RETRANSMIT_OVERHEAD
            print(f"{'ok' if ok else 'FAIL':>10}  {name}: lossless "
                  f"retransmit_overhead {overhead:.4g} "
                  f"(max {MAX_LOSSLESS_RETRANSMIT_OVERHEAD})")
            if not ok:
                failures.append(f"{name} (retransmit_overhead)")
            continue
        collected = float(row.get("collected", 0.0))
        if collected != 1.0:
            print(f"{'FAIL':>10}  {name}: loss {loss:g}% did not collect")
            failures.append(f"{name} (collected)")
            continue
        ratio = float(row.get("ttc_ratio_vs_lossless", float("inf")))
        ok = ratio <= MAX_TTC_RATIO_VS_LOSSLESS
        print(f"{'ok' if ok else 'FAIL':>10}  {name}: loss {loss:g}% "
              f"ttc_ratio_vs_lossless {ratio:.4g} "
              f"(max {MAX_TTC_RATIO_VS_LOSSLESS})")
        if not ok:
            failures.append(f"{name} (ttc_ratio_vs_lossless)")
    if checked == 0:
        _die(f"error: {path} has no rows with a loss_pct counter "
             "(not a fault-recovery benchmark file?)")
    if failures:
        print(f"\n{len(failures)} fault-recovery bound(s) violated:")
        for name in failures:
            print(f"  {name}")
        return 1
    print(f"\nall fault-recovery bounds hold across {checked} row(s)")
    return 0


# Scale-engine bounds (BENCH_scale.json). The open-loop counters are purely
# simulated (deterministic for a given seed), so absolute bounds are stable
# across hosts; only the flat-vs-map ratio involves wall time, and it gets a
# wide margin for noisy single-CPU runners.
# The collector must keep up with the arrival rate: most severed cycles are
# reclaimed within the run, not deferred to a quiesce phase.
MIN_COLLECTED_FRACTION = 0.5
# Time-to-collect tail bound in simulated ticks (the drivers use a 500-tick
# round period; measured p99 is ~4k ticks, so 10k means "a few rounds, not
# dozens").
MAX_TTC_P99 = 10_000.0
# Uncollected-severed backlog at end of run, as a fraction of everything
# severed: bounded work-in-flight, not an ever-growing queue.
MAX_BACKLOG_FRACTION = 0.5
# The flat table must be measurably cheaper than the std::map baseline on the
# same mutation mix: flat_time <= 0.95 * map_time (measured ~0.5-0.8x).
MAX_FLAT_VS_MAP_RATIO = 0.95


def check_scale(path):
    """Gate BENCH_scale.json on absolute open-loop and flat-table bounds.

    Open-loop rows carry simulation-clock counters (deterministic per seed);
    the table-mutation rows compare FlatMap against the std::map it replaced
    on identical op streams.
    """
    rows = load_benchmarks(path)
    failures = []
    open_loop = 0
    mutation_rows = {}
    for name in sorted(rows):
        row = rows[name]
        if "ttc_p50" in row and "cycles_severed" in row:
            open_loop += 1
            collected = float(row.get("cycles_collected", 0.0))
            severed = float(row.get("cycles_severed", 0.0))
            backlog = float(row.get("backlog", 0.0))
            p50 = float(row["ttc_p50"])
            p99 = float(row.get("ttc_p99", 0.0))
            problems = []
            if severed <= 0 or collected < MIN_COLLECTED_FRACTION * severed:
                problems.append("cycles_collected")
            if p50 <= 0 or p99 < p50:
                problems.append("ttc_percentiles")
            if p99 > MAX_TTC_P99:
                problems.append("ttc_p99")
            if backlog > MAX_BACKLOG_FRACTION * severed:
                problems.append("backlog")
            ok = not problems
            print(f"{'ok' if ok else 'FAIL':>10}  {name}: collected "
                  f"{collected:g}/{severed:g} severed (min "
                  f"{MIN_COLLECTED_FRACTION:g}x), ttc p50/p99 "
                  f"{p50:g}/{p99:g} (max p99 {MAX_TTC_P99:g}), "
                  f"backlog {backlog:g}")
            failures.extend(f"{name} ({p})" for p in problems)
        elif "flat" in row and "entries" in row:
            key = float(row["entries"])
            mutation_rows.setdefault(key, {})[float(row["flat"])] = row
    if open_loop == 0:
        _die(f"error: {path} has no open-loop rows with ttc_p50/"
             "cycles_severed counters (not a scale benchmark file?)")
    pairs = 0
    for entries in sorted(mutation_rows):
        pair = mutation_rows[entries]
        if 0.0 not in pair or 1.0 not in pair:
            continue
        pairs += 1
        map_time = float(pair[0.0].get("real_time", 0.0))
        flat_time = float(pair[1.0].get("real_time", 0.0))
        ratio = flat_time / map_time if map_time > 0 else float("inf")
        ok = ratio <= MAX_FLAT_VS_MAP_RATIO
        print(f"{'ok' if ok else 'FAIL':>10}  table mutation @{entries:g} "
              f"entries: flat/map time ratio {ratio:.3f} "
              f"(max {MAX_FLAT_VS_MAP_RATIO:g})")
        if not ok:
            failures.append(f"table mutation @{entries:g} (flat_vs_map_ratio)")
    if pairs == 0:
        _die(f"error: {path} has no flat/map table-mutation row pairs")
    if failures:
        print(f"\n{len(failures)} scale bound(s) violated:")
        for name in failures:
            print(f"  {name}")
        return 1
    print(f"\nall scale bounds hold across {open_loop} open-loop row(s) and "
          f"{pairs} table pair(s)")
    return 0


# --- transport gate ---------------------------------------------------------


def check_transport(path):
    """Gate BENCH_transport.json: socket verdicts == sim verdicts.

    Rows carry socket_* counters (from the real-process backend) and are
    gated on equality only — site processes pay real fork/socket syscalls,
    so their wall-clock is reported as information, never enforced.

    The equality leg (same severed/collected/reclaimed figures, row-level
    verdicts_match flag covering the survivor census) is unconditional: it
    holds by the engine's determinism argument and any violation is a
    correctness bug, not noise.
    """
    rows = load_benchmarks(path)
    failures = []
    checked = 0
    for name in sorted(rows):
        row = rows[name]
        if "verdicts_match" not in row or "sim_cycles_severed" not in row:
            continue
        checked += 1
        severed = float(row["sim_cycles_severed"])
        collected = float(row.get("sim_cycles_collected", 0.0))
        reclaimed = float(row.get("sim_reclaimed", 0.0))
        problems = []
        if severed <= 0:
            problems.append("vacuous_run")
        if float(row["verdicts_match"]) != 1.0:
            problems.append("verdicts_match")
        if "socket_cycles_severed" in row:
            socket = (float(row["socket_cycles_severed"]),
                      float(row.get("socket_cycles_collected", -1.0)),
                      float(row.get("socket_reclaimed", -1.0)))
            if socket != (severed, collected, reclaimed):
                problems.append("sim_socket_equality")
            compared = "socket {:g}/{:g}/{:g}".format(*socket)
        else:
            problems.append("no_backend_counters")
            compared = "(nothing)"
        ok = not problems
        print(f"{'ok' if ok else 'FAIL':>10}  {name}: "
              f"sim {severed:g}/{collected:g}/{reclaimed:g} vs {compared} "
              f"(severed/collected/reclaimed), socket wall "
              f"{float(row.get('socket_wall_ms', 0)):g}ms vs sim "
              f"{float(row.get('sim_wall_ms', 0)):g}ms (info)")
        failures.extend(f"{name} ({p})" for p in problems)
    if checked == 0:
        _die(f"error: {path} has no rows with verdicts_match/"
             "sim_cycles_severed counters (not a transport benchmark file?)")
    if failures:
        print(f"\n{len(failures)} transport bound(s) violated:")
        for name in failures:
            print(f"  {name}")
        return 1
    print(f"\nsocket matches sim on all {checked} row(s)")
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

_FIXTURE_SCALE = {
    "benchmarks": [
        {"name": "BM_Scale_OpenLoop/10/2000/iterations:1",
         "run_type": "iteration", "real_time": 1000.0,
         "cycles_collected": 3600.0, "cycles_severed": 4200.0,
         "backlog": 580.0, "ttc_p50": 3000.0, "ttc_p99": 3950.0,
         "msgs_per_cycle": 12.0},
        {"name": "BM_Scale_TableMutation/0/2048", "run_type": "iteration",
         "real_time": 11000.0, "flat": 0.0, "entries": 2048.0},
        {"name": "BM_Scale_TableMutation/1/2048", "run_type": "iteration",
         "real_time": 8500.0, "flat": 1.0, "entries": 2048.0},
    ]
}

_FIXTURE_TRANSPORT = {
    "benchmarks": [
        # The socket row carries socket_* counters and no speedup field:
        # real processes are slower than the simulator by design, so only
        # verdict equality is enforceable.
        {"name": "BM_Transport_ScriptedChurn/iterations:1",
         "run_type": "iteration", "real_time": 120.0, "host_cpus": 8.0,
         "sim_wall_ms": 0.5, "socket_wall_ms": 115.0,
         "verdicts_match": 1.0, "sim_cycles_severed": 8.0,
         "sim_cycles_collected": 8.0, "sim_reclaimed": 32.0,
         "socket_cycles_severed": 8.0, "socket_cycles_collected": 8.0,
         "socket_reclaimed": 32.0, "handshakes": 4.0,
         "step_requests": 165.0, "build_ops": 168.0, "step_timeouts": 0.0},
    ]
}

_FIXTURE_FAULT_RECOVERY = {
    "benchmarks": [
        {"name": "BM_FaultRecovery_GarbageRing/0", "run_type": "iteration",
         "real_time": 4.0, "loss_pct": 0.0, "collected": 1.0,
         "retransmit_overhead": 0.0},
        {"name": "BM_FaultRecovery_GarbageRing/10", "run_type": "iteration",
         "real_time": 6.0, "loss_pct": 10.0, "collected": 1.0,
         "retransmit_overhead": 0.15, "ttc_ratio_vs_lossless": 1.3},
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

    def check_with(fixture):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "fault.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(fixture, fh)
            return check_fault_recovery(path)

    # Absolute fault-recovery bounds: the healthy fixture passes.
    assert check_with(copy.deepcopy(_FIXTURE_FAULT_RECOVERY)) == 0, \
        "healthy fault-recovery run must pass"

    # Retransmit overhead on a lossless network fails.
    noisy = copy.deepcopy(_FIXTURE_FAULT_RECOVERY)
    noisy["benchmarks"][0]["retransmit_overhead"] = 0.2
    assert check_with(noisy) == 1, "lossless retransmit overhead must fail"

    # A lossy run that never collects fails.
    stuck = copy.deepcopy(_FIXTURE_FAULT_RECOVERY)
    stuck["benchmarks"][1]["collected"] = 0.0
    assert check_with(stuck) == 1, "uncollected lossy run must fail"

    # A lossy run more than 5x slower than its lossless twin fails.
    crawl = copy.deepcopy(_FIXTURE_FAULT_RECOVERY)
    crawl["benchmarks"][1]["ttc_ratio_vs_lossless"] = 7.5
    assert check_with(crawl) == 1, "5x time-to-collect blowup must fail"

    def scale_with(fixture):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "scale.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(fixture, fh)
            return check_scale(path)

    # Scale bounds: the healthy fixture passes.
    assert scale_with(copy.deepcopy(_FIXTURE_SCALE)) == 0, \
        "healthy scale run must pass"

    # A collector that falls behind the arrival rate fails.
    behind = copy.deepcopy(_FIXTURE_SCALE)
    behind["benchmarks"][0]["cycles_collected"] = 100.0
    assert scale_with(behind) == 1, "collector falling behind must fail"

    # An unbounded end-of-run backlog fails.
    queued = copy.deepcopy(_FIXTURE_SCALE)
    queued["benchmarks"][0]["backlog"] = 3000.0
    assert scale_with(queued) == 1, "unbounded backlog must fail"

    # A time-to-collect tail of dozens of rounds fails.
    tail = copy.deepcopy(_FIXTURE_SCALE)
    tail["benchmarks"][0]["ttc_p99"] = 50000.0
    assert scale_with(tail) == 1, "ttc tail blowup must fail"

    # A flat table no cheaper than the std::map it replaced fails.
    regressed = copy.deepcopy(_FIXTURE_SCALE)
    regressed["benchmarks"][2]["real_time"] = 11000.0
    assert scale_with(regressed) == 1, "flat-vs-map regression must fail"

    def transport_with(fixture):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "transport.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(fixture, fh)
            return check_transport(path)

    # Transport bounds: the healthy fixture passes.
    assert transport_with(copy.deepcopy(_FIXTURE_TRANSPORT)) == 0, \
        "healthy transport run must pass"

    # A run that never severed anything is vacuous and fails.
    idle = copy.deepcopy(_FIXTURE_TRANSPORT)
    for row in idle["benchmarks"]:
        for key in ("sim_cycles_severed", "socket_cycles_severed",
                    "sim_cycles_collected", "socket_cycles_collected",
                    "sim_reclaimed", "socket_reclaimed"):
            row[key] = 0.0
    assert transport_with(idle) == 1, "vacuous transport run must fail"

    # The socket row is equality-gated: a reclaim divergence between the
    # process backend and sim fails...
    socket_diverged = copy.deepcopy(_FIXTURE_TRANSPORT)
    socket_diverged["benchmarks"][0]["socket_reclaimed"] = 31.0
    assert transport_with(socket_diverged) == 1, \
        "sim-socket reclaim mismatch must fail"

    # ...and a census mismatch flagged by the row fails even with counts
    # equal.
    socket_census = copy.deepcopy(_FIXTURE_TRANSPORT)
    socket_census["benchmarks"][0]["verdicts_match"] = 0.0
    assert transport_with(socket_census) == 1, \
        "socket census divergence must fail"

    # But the socket row carries no speedup field, and real processes being
    # slower than the simulator must never fail the gate on any host.
    socket_slow = copy.deepcopy(_FIXTURE_TRANSPORT)
    socket_slow["benchmarks"][0]["socket_wall_ms"] = 99999.0
    assert transport_with(socket_slow) == 0, \
        "socket wall-clock is informational, not gated"

    # Every gate must degrade with a clear message and exit code 2 — never a
    # Python traceback — when its input/baseline JSON does not exist.
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
    expect_clean_exit(check_fault_recovery, missing)
    expect_clean_exit(check_scale, missing)
    expect_clean_exit(check_transport, missing)

    # ...and the same for structurally malformed files.
    with tempfile.TemporaryDirectory() as tmp:
        broken = os.path.join(tmp, "broken.json")
        with open(broken, "w", encoding="utf-8") as fh:
            fh.write("{\"benchmarks\": [{\"real_time\": 1.0}]}")
        expect_clean_exit(check_transport, broken)
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
    parser.add_argument("--check-fault-recovery", metavar="FILE",
                        help="gate a BENCH_fault_recovery.json on absolute "
                             "bounds (no baseline needed)")
    parser.add_argument("--check-scale", metavar="FILE",
                        help="gate a BENCH_scale.json on absolute open-loop "
                             "and flat-table bounds (no baseline needed)")
    parser.add_argument("--check-transport", metavar="FILE",
                        help="gate a BENCH_transport.json on sim/socket "
                             "verdict equality (no baseline needed)")
    args = parser.parse_args(argv)

    if args.self_test:
        return _self_test()
    if args.check_fault_recovery:
        return check_fault_recovery(args.check_fault_recovery)
    if args.check_scale:
        return check_scale(args.check_scale)
    if args.check_transport:
        return check_transport(args.check_transport)
    if not args.baseline or not args.candidate:
        parser.print_usage(sys.stderr)
        return 2
    return run_compare(args.baseline, args.candidate, args.threshold)


if __name__ == "__main__":
    sys.exit(main())
