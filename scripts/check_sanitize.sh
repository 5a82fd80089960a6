#!/usr/bin/env bash
# Builds the tree with a sanitizer in a separate build directory and runs the
# test suite under it. The heap's slot arena, flat visit records, and the
# message batching paths all juggle raw slots and ids — ASan + UBSan is the
# cheap way to prove none of them touch freed or uninitialized memory (the
# arena poisons the ranges it holds free, so ASan sees a stale slot view).
# Every process is single-threaded, so there is no ThreadSanitizer flavour.
#
# Usage:
#   check_sanitize.sh             # ASan+UBSan, full suite (includes chaos and
#                                 # the socket-transport process tests)
#   check_sanitize.sh --chaos     # ASan+UBSan, only the chaos suite (-L chaos):
#                                 # fault plans exercise the retransmit,
#                                 # parking, and restart-purge paths hardest,
#                                 # so this is the fast sanitizer smoke run
#   check_sanitize.sh --socket    # ASan+UBSan, only the socket suite
#                                 # (-L socket): real site processes, kill -9 /
#                                 # SIGSTOP chaos, snapshot restore — the fork
#                                 # server inherits ASan fine, and leaks in
#                                 # short-lived site processes still report
#   check_sanitize.sh --wire      # ASan+UBSan, only the wire suite (-L wire):
#                                 # the codec's golden bytes and round trips,
#                                 # the seeded mutation fuzzer over frames and
#                                 # site snapshots, and the snapshot
#                                 # consistency rules — hostile bytes must
#                                 # fail cleanly, never read out of bounds
#   check_sanitize.sh --e2e       # ASan+UBSan over the end-to-end benchmark:
#                                 # builds bench/e2e (its own project, which
#                                 # compiles src/ itself) into
#                                 # .bench_build/e2e-asan and runs its smoke
#                                 # tests (-L bench), the socket workload's
#                                 # real site processes included
#   check_sanitize.sh [ctest args...]   # any extra args pass through to ctest
set -euo pipefail
cd "$(dirname "$0")/.."

CTEST_ARGS=()
if [[ "${1:-}" == "--chaos" ]]; then
  CTEST_ARGS+=(-L chaos)
  shift
elif [[ "${1:-}" == "--socket" ]]; then
  CTEST_ARGS+=(-L socket)
  shift
elif [[ "${1:-}" == "--wire" ]]; then
  CTEST_ARGS+=(-L wire)
  shift
elif [[ "${1:-}" == "--e2e" ]]; then
  shift
  E2E_DIR=${BUILD_DIR:-.bench_build/e2e-asan}
  SAN_FLAGS="-fsanitize=address,undefined -fno-omit-frame-pointer"
  cmake -S bench/e2e -B "$E2E_DIR" -G Ninja -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS="$SAN_FLAGS" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined"
  cmake --build "$E2E_DIR"
  ASAN_OPTIONS=${ASAN_OPTIONS:-detect_leaks=1} \
  UBSAN_OPTIONS=${UBSAN_OPTIONS:-print_stacktrace=1:halt_on_error=1} \
    exec ctest --test-dir "$E2E_DIR" --output-on-failure -L bench "$@"
fi
CTEST_ARGS+=("$@")

BUILD_DIR=${BUILD_DIR:-build-asan}

# -Werror too: the tree builds warning-free, so a new warning fails the run.
cmake -B "$BUILD_DIR" -G Ninja -DDGC_SANITIZE=ON -DDGC_WERROR=ON \
  -DCMAKE_BUILD_TYPE=Debug
cmake --build "$BUILD_DIR"
ASAN_OPTIONS=${ASAN_OPTIONS:-detect_leaks=1} \
UBSAN_OPTIONS=${UBSAN_OPTIONS:-print_stacktrace=1:halt_on_error=1} \
  ctest --test-dir "$BUILD_DIR" --output-on-failure "${CTEST_ARGS[@]}"
