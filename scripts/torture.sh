#!/usr/bin/env bash
# Runs the torture suites (ctest labels `torture`, `overload`, `net`,
# `vectorize`, `ha`, `shared` and `storage`) under ASan+UBSan, then the
# concurrency, vectorize, ha, shared, net and storage labels under TSAN.
#
#   scripts/torture.sh [ctest-args...]
#
# The crash-recovery suite (`torture`) replays 100 randomized workloads,
# crashing each one at sampled k-th fault-point hits (with clean/torn/
# corrupt WAL tails) and recovering via both strategies; recovered tables
# must match a no-crash oracle byte for byte. It also fails every k-th
# wal.append, wal.sync and disk.write hit once in a seeded workload: later
# writes must land, and recovery and a standby must reproduce the live
# tables. A
# failure prints the (seed, strategy, k, mode) tuple to re-run with
# --gtest_filter. The overload
# suite (`overload`) drives every admission policy over a forced memory
# budget plus the sink-retry and quarantine fault
# drills; exact accounting and oracle equivalence are asserted while
# ASan+UBSan watch the shed/requeue paths. The network suite (`net`)
# exercises the TCP front-end — corrupt frames and every single-bit flip
# of one, pushes encoded in place, slow-consumer policies, frames written
# in pieces through the smallest send buffer, net.* fault drills, and the
# seeded INGEST_BATCH decoder drill (every proper prefix plus 100k mutated
# bodies, decoded like a row-by-row reference) — with the sanitizers
# watching the event loop, the decoder and per-connection send queues. The vectorize suite (`vectorize`) replays
# the 200-seed differential of shared CQs against the same SQL on the
# generic evaluator, with the sanitizers watching the arena/bitmap/
# selection kernels and torn-row quarantine. UBSan findings are fatal
# (-fno-sanitize-recover=undefined in the address build). The failover
# suite (`ha`) replays 100 seeded workloads through WAL shipping to a
# hot standby, kills the primary at a sampled fault-point hit
# (clean/torn/corrupt tails), promotes the standby, and requires the
# resumed subscriber's transcript to match a no-failover oracle byte for
# byte. The shared suite (`shared`) replays 100 seeded dashboards whose
# CQs share window merges and evaluations, byte-identical to the same SQL
# run unshared, and covers the one compile path every CQ takes: the
# planner (`planner_test`), the sharing decision and the cases where a
# shared CQ must answer like its unshared twin (`continuous_query_test`),
# the shared-vs-generic property (`property_test`), and the aggregate
# engine both paths run on: its kernels (`aggregates_test`), slice absorb
# and window close (`shared_aggregation_test`), and the seeded kernel
# differential against the reference states in tests/agg_state_reference.h
# (`aggregate_kernel_differential_test`). The storage
# suite (`storage`) covers the heap read loop every table reader shares
# (disk, heap, transaction, B+Tree and operator units, DML and VACUUM,
# window consistency, and the seeded read-path differential against a
# row-at-a-time reference), the one table write path (channel closes in
# `channel_test`, the sys_* refresh in `system_tables_test`) and the WAL:
# its one-pass framing and checksum, record batching under the slice cap,
# every single-bit flip of a record rejected on replay and on shipping
# (`wal_test`), and replay into tables (`recovery_test`). After
# the ASan+UBSan pass, the concurrency suite (label `concurrency`:
# concurrent ingest on disjoint streams vs. the control plane, the
# concurrent-vs-serial-oracle differential, columnar ingest under DDL
# churn, shared closes under member churn, active-table reads under ingest
# and VACUUM, network client fan-in) plus the vectorize, ha, shared, net and storage labels run again
# under TSAN — lock-hierarchy violations (DESIGN decision 11) and loop-/worker-/
# delivery-thread races (every subscription's pushes pass its gate
# mutex) surface there, not under ASan. Extra arguments are forwarded to
# ctest, e.g.
#   scripts/torture.sh --verbose
#
# Reuses sanitize.sh's build-asan/ and build-tsan/ trees, so a prior
# sanitize run makes this incremental (and vice versa).
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$REPO_ROOT"

BUILD_DIR="build-asan"
cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DSTREAMREL_SANITIZE=address
cmake --build "$BUILD_DIR" -j "$(nproc)"

export ASAN_OPTIONS="${ASAN_OPTIONS:-detect_stack_use_after_return=1}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1}"

(cd "$BUILD_DIR" && ctest --output-on-failure -L "torture|overload|net|vectorize|ha|shared|storage" "$@")

# TSAN leg: the concurrency, vectorize, ha, shared, net and storage labels
# only (the full-suite TSAN run is scripts/sanitize.sh thread). Races between
# the ingest threads, the server's event loop + request workers, WAL
# shipping, and delivery callbacks are precisely what these tests provoke.
TSAN_BUILD_DIR="build-tsan"
cmake -B "$TSAN_BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DSTREAMREL_SANITIZE=thread
cmake --build "$TSAN_BUILD_DIR" -j "$(nproc)"

export TSAN_OPTIONS="${TSAN_OPTIONS:-second_deadlock_stack=1}"

(cd "$TSAN_BUILD_DIR" && ctest --output-on-failure -L "concurrency|vectorize|ha|shared|net|storage" "$@")
