#!/usr/bin/env bash
# ci.sh — the full gate, runnable locally or from CI.
#
#   scripts/ci.sh            normal build + full ctest (tier-1 gate)
#   scripts/ci.sh sanitize   ASan+UBSan build + full ctest
#   scripts/ci.sh tsan       ThreadSanitizer build + the `server`, `obs`,
#                            `parallel`, `wal`, `vectorized`, and `invidx`
#                            labels (ptserverd concurrency: worker pool,
#                            DbGate, remote dbal, stress + crash-restart
#                            tests; obs registry/tracer cross-thread races;
#                            morsel-driven parallel query execution and the
#                            shared ExecPool; WAL snapshot readers racing
#                            group-commit writers; the WAL crash matrix and
#                            log-format tests; the batch-execution
#                            differentials; the inverted-index matchers)
#   scripts/ci.sh bench      normal build + bench smoke (non-gating label)
#
# Each mode uses its own build directory so they can be run back to back.
set -eu

MODE="${1:-normal}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
JOBS="${JOBS:-$(nproc 2>/dev/null || echo 4)}"

case "$MODE" in
  normal)
    BUILD="$ROOT/build-ci"
    cmake -S "$ROOT" -B "$BUILD" -DCMAKE_BUILD_TYPE=RelWithDebInfo
    cmake --build "$BUILD" -j "$JOBS"
    ctest --test-dir "$BUILD" --output-on-failure -LE bench
    ;;
  sanitize)
    BUILD="$ROOT/build-asan"
    cmake -S "$ROOT" -B "$BUILD" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
          -DPT_SANITIZE=address,undefined
    cmake --build "$BUILD" -j "$JOBS"
    # halt_on_error makes UBSan findings fail the suite instead of scrolling by.
    UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
      ctest --test-dir "$BUILD" --output-on-failure -LE bench
    ;;
  tsan)
    # TSan is incompatible with ASan, so it gets its own tree; the server
    # label selects everything multi-threaded (src/server tests and the
    # daemon crash-restart script), the obs label adds the metrics
    # registry / tracer cross-thread exercises, the parallel label adds
    # the morsel-driven executor and ExecPool suites, the wal label the WAL
    # snapshot and crash-matrix suites, the vectorized label the batch
    # differentials, and the invidx label the inverted-index matcher
    # differentials.
    BUILD="$ROOT/build-tsan"
    cmake -S "$ROOT" -B "$BUILD" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
          -DPT_SANITIZE=thread
    cmake --build "$BUILD" -j "$JOBS"
    TSAN_OPTIONS=halt_on_error=1:second_deadlock_stack=1 \
      ctest --test-dir "$BUILD" --output-on-failure -L "server|obs|parallel|wal|vectorized|invidx"
    ;;
  bench)
    # Smoke only: the benchmarks must run to completion; numbers are not gated.
    BUILD="$ROOT/build-ci"
    cmake -S "$ROOT" -B "$BUILD" -DCMAKE_BUILD_TYPE=RelWithDebInfo
    cmake --build "$BUILD" -j "$JOBS"
    ctest --test-dir "$BUILD" --output-on-failure -L bench
    ;;
  *)
    echo "usage: $0 [normal|sanitize|tsan|bench]" >&2
    exit 2
    ;;
esac
