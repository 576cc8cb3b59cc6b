#!/usr/bin/env bash
# Runs the tier-1 test suite under a sanitizer build.
#
#   scripts/sanitize.sh [thread|address] [ctest-args...]
#
# Builds into build-tsan/ or build-asan/ (separate from the normal build/)
# so sanitized and plain object files never mix, then runs ctest. Any extra
# arguments are forwarded to ctest (e.g. -R vectorize_differential_test).
# In `address` mode UBSan findings are fatal (the build adds
# -fno-sanitize-recover=undefined), so a report fails the test that hits
# it. The full suite, in both modes, includes the crash-recovery,
# overload, vectorize (`vectorize`: 200-seed differential of shared CQs
# against the same SQL on the generic evaluator), shared-close
# (`shared`: 100-seed shared-vs-unshared differential) and failover
# (`ha`: 100-seed primary-kill/promote torture with byte-identical
# subscriber transcripts) torture tests;
# scripts/torture.sh runs just those (labels `torture` + `overload` + `net`
# + `vectorize` + `ha` + `shared`) under ASan+UBSan. `thread` mode
# additionally covers the
# concurrency suite (label `concurrency`: concurrent ingest vs. control
# plane, overload budget/policy flips mid-ingest, the
# concurrent-vs-serial-oracle differential, columnar ingest under DDL
# churn, network client fan-in, WAL shipping concurrent with ingest and
# DDL, shared closes under member churn) and the vectorize and shared
# differentials under TSAN — the lock-hierarchy proof runs, per DESIGN
# decision 11.
set -euo pipefail

MODE="${1:-thread}"
shift || true
case "$MODE" in
  thread)  BUILD_DIR="build-tsan" ;;
  address) BUILD_DIR="build-asan" ;;
  *)
    echo "usage: $0 [thread|address] [ctest-args...]" >&2
    exit 2
    ;;
esac

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$REPO_ROOT"

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DSTREAMREL_SANITIZE="$MODE"
cmake --build "$BUILD_DIR" -j "$(nproc)"

# second_deadlock_stack: report both lock orders in a TSAN deadlock;
# halt_on_error off so one report does not mask later ones in a run.
export TSAN_OPTIONS="${TSAN_OPTIONS:-second_deadlock_stack=1}"
export ASAN_OPTIONS="${ASAN_OPTIONS:-detect_stack_use_after_return=1}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1}"

cd "$BUILD_DIR"
ctest --output-on-failure "$@"
