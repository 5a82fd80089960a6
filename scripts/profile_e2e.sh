#!/usr/bin/env bash
# Per-function profile of one end-to-end benchmark workload.
#
# Builds bench/e2e with gprof instrumentation (-pg) into .bench_build/e2e-pg,
# runs `bench_e2e --workload=W --units=N` in a temporary directory (where the
# profile lands as gmon.out), and prints the top 40 lines of the flat
# profile. Use the proportions, not the absolute times: instrumentation
# inflates short calls. A traced run (`run.py --trace 1`) splits wall time by
# layer; this is the per-function view inside a layer, and the only view of
# the work the traced run files under `unattributed` (scale's commit, for
# one).
#
# Usage:
#   scripts/profile_e2e.sh WORKLOAD [UNITS]   # UNITS defaults to 1
#   scripts/profile_e2e.sh scale              # one 100-site scale world
#   scripts/profile_e2e.sh hypertext 30       # thirty hypertext webs
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -lt 1 || $# -gt 2 ]]; then
  echo "usage: $0 WORKLOAD [UNITS]" >&2
  exit 2
fi
WORKLOAD=$1
UNITS=${2:-1}

BUILD_DIR=.bench_build/e2e-pg
GENERATOR=()
if command -v ninja > /dev/null; then GENERATOR=(-G Ninja); fi
if [[ ! -f "$BUILD_DIR/CMakeCache.txt" ]]; then
  cmake -S bench/e2e -B "$BUILD_DIR" "${GENERATOR[@]}" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo -DCMAKE_CXX_FLAGS=-pg \
    -DCMAKE_EXE_LINKER_FLAGS=-pg > /dev/null
fi
cmake --build "$BUILD_DIR" -j "$(nproc)" > /dev/null
BINARY=$(pwd)/$BUILD_DIR/bench_e2e

RUN_DIR=$(mktemp -d)
trap 'rm -rf "$RUN_DIR"' EXIT
(cd "$RUN_DIR" && "$BINARY" --workload="$WORKLOAD" --units="$UNITS" > result.json)
gprof -b -p "$BINARY" "$RUN_DIR/gmon.out" | c++filt | head -n 40
