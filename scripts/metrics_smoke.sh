#!/usr/bin/env bash
# metrics_smoke.sh — end-to-end smoke of the observability surface.
#
# Boots ptserverd with --metrics-port 0 on a fresh store, scrapes the HTTP
# endpoint with nothing but bash's /dev/tcp, and validates:
#
#   * a malformed execution-option flag (--exec-threads abc, --invidx 2, ...)
#     makes ptserverd exit 2 naming the option's range;
#   * /metrics answers HTTP 200 with the Prometheus text exposition
#     Content-Type and well-formed "# TYPE <name> <kind>" lines;
#   * counters are live: pt_server_frames_served_total strictly increases
#     after a ptquery --connect workload;
#   * the parallel-exec metrics (pt_exec_morsels_dispatched_total,
#     pt_exec_parallel_queries_total, pt_exec_pool_threads,
#     pt_exec_gather_wait_ms) and the vectorized-pipeline metrics
#     (pt_exec_batches_total, pt_exec_batch_fill_rows) appear and move after
#     a GROUP BY workload on a server started with --exec-threads 4
#     (PT_EXEC_MIN_PAGES=1 defeats the small-table gate so the smoke stays
#     fast);
#   * the inverted-index metrics (pt_invidx_builds_total,
#     pt_invidx_probes_total, pt_invidx_lists) appear and move after an
#     IN-list probe on a secondary-indexed integer column, and
#     pt_invidx_fallbacks_total stays 0 (the probe runs under a snapshot, in
#     the default WAL durability, and still takes the posting path);
#   * /traces shows the recent-query ring with the workload's SQL in it;
#   * /healthz answers "ok" and /varz reports the build/config lines,
#     including the effective value of every execution option;
#   * the diagnosis metrics (pt_diag_diffs_total, pt_diag_pairs_aligned_total,
#     pt_diag_divergences_total, pt_diag_diff_ms) appear and move after two
#     bench runs are ingested over the wire with pt_perf_ingest and DIFFed
#     with ptquery --connect;
#   * an unknown path answers 404 and does not kill the daemon;
#   * the daemon still drains cleanly (SIGTERM -> exit 0) afterwards.
#
# Usage: metrics_smoke.sh <cli-bin-dir>
set -u

BIN="${1:?usage: metrics_smoke.sh <cli-bin-dir>}"
WORK="$(mktemp -d)"
SRV_PID=""
cleanup() {
  [ -n "$SRV_PID" ] && kill -9 "$SRV_PID" 2>/dev/null
  rm -rf "$WORK"
}
trap cleanup EXIT

fail() { echo "FAIL: $*" >&2; exit 1; }

# --- option flags: a value outside the row's type or range exits 2 ----------

# Each case: flag, value, the range the message must name. `timeout` turns
# a wrongly accepted flag (a server that starts and serves) into a failure.
while read -r FLAG VALUE RANGE; do
  timeout 10 "$BIN/ptserverd" --listen 127.0.0.1:0 "$FLAG" "$VALUE" \
    "$WORK/bad.db" > /dev/null 2> "$WORK/bad.err"
  RC=$?
  [ "$RC" -eq 2 ] || fail "ptserverd $FLAG '$VALUE' exited $RC, want 2"
  grep -qF -e "$FLAG wants a value in $RANGE" "$WORK/bad.err" \
    || fail "ptserverd $FLAG '$VALUE' did not name the range $RANGE: $(cat "$WORK/bad.err")"
done <<'CASES'
--exec-threads abc [1, 1024]
--exec-threads 0 [1, 1024]
--exec-threads 1025 [1, 1024]
--invidx 2 [0, 1]
--use-indexes no [0, 1]
--exec-batch-rows 12abc [1, 65536]
--exec-min-pages -1 [0, 2147483647]
CASES

# --slow-query-ms puts the tracer in time-everything mode (classifying slow
# queries needs every span), which makes the /traces assertions below
# deterministic; 5000ms keeps the slow log itself empty. --exec-threads 4
# with the page gate off lets the small parallel workload below actually go
# parallel regardless of the host's core count. The other option env vars
# are cleared so /varz shows the table defaults for them.
env -u PT_EXEC_THREADS -u PT_EXEC_BATCH_ROWS -u PT_INVIDX PT_EXEC_MIN_PAGES=1 \
"$BIN/ptserverd" --listen 127.0.0.1:0 --workers 2 --metrics-port 0 \
  --slow-query-ms 5000 --exec-threads 4 \
  "$WORK/store.db" > "$WORK/srv.out" 2> "$WORK/srv.err" &
SRV_PID=$!
for _ in $(seq 1 200); do
  PORT="$(sed -n 's/^listening on 127\.0\.0\.1:\([0-9][0-9]*\)$/\1/p' "$WORK/srv.out")"
  MPORT="$(sed -n 's|^metrics on http://127\.0\.0\.1:\([0-9][0-9]*\)/metrics$|\1|p' "$WORK/srv.out")"
  [ -n "$PORT" ] && [ -n "$MPORT" ] && break
  kill -0 "$SRV_PID" 2>/dev/null || fail "ptserverd died at startup: $(cat "$WORK/srv.err")"
  sleep 0.02
done
[ -n "${PORT:-}" ] || fail "no wire port line in server output"
[ -n "${MPORT:-}" ] || fail "no metrics port line in server output"

# Minimal HTTP/1.0 GET over bash /dev/tcp; response (headers + body) on stdout.
scrape() {
  local path="$1"
  exec 3<>"/dev/tcp/127.0.0.1/$MPORT" || fail "cannot connect to metrics port"
  printf 'GET %s HTTP/1.0\r\n\r\n' "$path" >&3
  cat <&3
  exec 3<&- 3>&-
}

frames_of() {
  # Exposition sample line: "<name> <value>".
  printf '%s\n' "$1" | sed -n 's/^pt_server_frames_served_total \([0-9][0-9]*\)$/\1/p'
}

# --- first scrape: format checks on an idle server ---------------------------

RESP="$(scrape /metrics)" || fail "first scrape"
printf '%s\n' "$RESP" | head -1 | grep -q '^HTTP/1\.0 200' \
  || fail "/metrics did not answer 200: $(printf '%s\n' "$RESP" | head -1)"
printf '%s\n' "$RESP" | grep -qi '^Content-Type: text/plain; version=0\.0\.4' \
  || fail "/metrics missing Prometheus text Content-Type"
# Every TYPE comment must be "# TYPE <metric_name> counter|gauge|histogram".
BAD_TYPES="$(printf '%s\n' "$RESP" | grep '^# TYPE ' \
  | grep -Ev '^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram)$')"
[ -z "$BAD_TYPES" ] || fail "malformed TYPE line(s): $BAD_TYPES"
[ "$(printf '%s\n' "$RESP" | grep -c '^# TYPE ')" -ge 5 ] \
  || fail "expected at least 5 TYPE lines on a booted server"
printf '%s\n' "$RESP" | grep -q '^pt_server_sessions 0$' \
  || fail "idle server should report 0 sessions"
FRAMES_BEFORE="$(frames_of "$RESP")"
[ -n "$FRAMES_BEFORE" ] || fail "pt_server_frames_served_total sample missing"

# --- health and introspection endpoints --------------------------------------

HEALTH="$(scrape /healthz)" || fail "healthz scrape"
printf '%s\n' "$HEALTH" | head -1 | grep -q '^HTTP/1\.0 200' || fail "/healthz not 200"
printf '%s\n' "$HEALTH" | grep -q '^ok$' || fail "/healthz body is not ok: $HEALTH"

VARZ="$(scrape /varz)" || fail "varz scrape"
printf '%s\n' "$VARZ" | head -1 | grep -q '^HTTP/1\.0 200' || fail "/varz not 200"
printf '%s\n' "$VARZ" | grep -q '^pt_server_protocol_version [0-9]' \
  || fail "/varz missing protocol version"
printf '%s\n' "$VARZ" | grep -q '^pt_server_durability wal$' \
  || fail "/varz should report the default durability mode, wal"
printf '%s\n' "$VARZ" | grep -q '^pt_server_workers 2$' \
  || fail "/varz workers should echo --workers 2"
printf '%s\n' "$VARZ" | grep -q '^pt_server_exec_threads 4$' \
  || fail "/varz exec_threads should echo --exec-threads 4"
# Every execution option's effective value: flag, env, or table default.
for LINE in 'pt_server_use_indexes 1' 'pt_server_exec_batch_rows 1024' \
            'pt_server_invidx 1' 'pt_server_exec_min_pages 1'; do
  printf '%s\n' "$VARZ" | grep -qx "$LINE" || fail "/varz missing '$LINE'"
done
printf '%s\n' "$VARZ" | grep -q '^pt_server_build_compiler ' \
  || fail "/varz missing build info"
printf '%s\n' "$VARZ" | grep -q '^pt_server_uptime_ms [0-9]' \
  || fail "/varz missing uptime"

# --- workload, then prove the counters moved ---------------------------------

sql() { "$BIN/ptquery" --connect "127.0.0.1:$PORT" sql "$1"; }
sql "CREATE TABLE smoke (id INTEGER PRIMARY KEY, v INTEGER)" >/dev/null \
  || fail "CREATE TABLE over the wire"
for i in 1 2 3; do
  sql "INSERT INTO smoke (v) VALUES ($i)" >/dev/null || fail "insert $i"
done
sql "SELECT COUNT(*) FROM smoke" >/dev/null || fail "select over the wire"

RESP="$(scrape /metrics)" || fail "second scrape"
FRAMES_AFTER="$(frames_of "$RESP")"
[ -n "$FRAMES_AFTER" ] || fail "frames counter disappeared"
[ "$FRAMES_AFTER" -gt "$FRAMES_BEFORE" ] \
  || fail "frames_served did not move ($FRAMES_BEFORE -> $FRAMES_AFTER)"
# The default WAL mode appends commits to <db>.wal; the db file itself is
# rewritten only at checkpoints, so the WAL gauge is the one writes move.
printf '%s\n' "$RESP" | grep -q '^pt_db_file_bytes [0-9]' \
  || fail "db file size gauge missing"
printf '%s\n' "$RESP" | grep -q '^pt_db_wal_file_bytes [1-9]' \
  || fail "WAL file size gauge not positive after writes"

# --- parallel-exec metrics ---------------------------------------------------
# A grouped aggregate on the gated-open store runs morsel-parallel (the
# server was started with --exec-threads 4 and PT_EXEC_MIN_PAGES=1), which
# must register and move all four exec metrics. The table needs to span
# several morsels (~2k rows each) or the scheduler clamps the degree back to
# one and never spawns a pool thread, so load 10k rows in 100-row batches.

HUNDRED="$(seq 1 100 | sed 's/.*/(&)/' | paste -sd, -)"
for i in $(seq 1 100); do
  sql "INSERT INTO smoke (v) VALUES $HUNDRED" >/dev/null \
    || fail "parallel workload insert batch $i"
done
sql "SELECT v, COUNT(*) FROM smoke GROUP BY v ORDER BY v" >/dev/null \
  || fail "parallel GROUP BY over the wire"

RESP="$(scrape /metrics)" || fail "parallel-exec scrape"
printf '%s\n' "$RESP" | grep -q '^pt_exec_parallel_queries_total [1-9]' \
  || fail "pt_exec_parallel_queries_total did not move after a parallel GROUP BY"
printf '%s\n' "$RESP" | grep -q '^pt_exec_morsels_dispatched_total [1-9]' \
  || fail "pt_exec_morsels_dispatched_total did not move"
printf '%s\n' "$RESP" | grep -q '^pt_exec_pool_threads [1-9]' \
  || fail "pt_exec_pool_threads gauge not positive"
printf '%s\n' "$RESP" | grep -q '^pt_exec_gather_wait_ms_count [1-9]' \
  || fail "pt_exec_gather_wait_ms histogram recorded no observations"
printf '%s\n' "$RESP" | grep -q '^pt_exec_batches_total [1-9]' \
  || fail "pt_exec_batches_total did not move (vectorized pipeline idle?)"
printf '%s\n' "$RESP" | grep -q '^pt_exec_batch_fill_rows_count [1-9]' \
  || fail "pt_exec_batch_fill_rows histogram recorded no observations"

# --- inverted-index metrics --------------------------------------------------
# An IN-list probe on a secondary-indexed integer column takes the planner's
# posting-list path (invidx is on by default), which builds a rid posting
# index for smoke.v under the session's snapshot and probes it —
# pt_invidx_builds/probes_total must move, the lists gauge must go positive,
# and nothing may fall back to the B-tree path.

sql "CREATE INDEX smoke_v ON smoke (v)" >/dev/null \
  || fail "CREATE INDEX for the posting-path workload"
sql "SELECT id FROM smoke WHERE v IN (5, 6, 7, 8) ORDER BY id" >/dev/null \
  || fail "IN-list probe over the wire"

RESP="$(scrape /metrics)" || fail "invidx scrape"
printf '%s\n' "$RESP" | grep -q '^pt_invidx_builds_total [1-9]' \
  || fail "pt_invidx_builds_total did not move after the IN-list probe"
printf '%s\n' "$RESP" | grep -q '^pt_invidx_probes_total \([2-9]\|[1-9][0-9][0-9]*\)$' \
  || fail "pt_invidx_probes_total below 2 after a 4-key IN-list probe"
printf '%s\n' "$RESP" | grep -q '^pt_invidx_lists [1-9]' \
  || fail "pt_invidx_lists gauge not positive"
printf '%s\n' "$RESP" | grep -qx 'pt_invidx_fallbacks_total 0' \
  || fail "an IN-list probe fell back: $(printf '%s\n' "$RESP" | grep '^pt_invidx_fallbacks_total')"

TRACES="$(scrape /traces)" || fail "trace scrape"
printf '%s\n' "$TRACES" | head -1 | grep -q '^HTTP/1\.0 200' || fail "/traces not 200"
printf '%s\n' "$TRACES" | grep -q '== recent queries' || fail "trace dump header missing"
# The INSERT storm above has rolled the ring past the early COUNT(*) probe,
# so look for the parallel GROUP BY, which ran last.
printf '%s\n' "$TRACES" | grep -q 'SELECT v, COUNT(\*) FROM smoke GROUP BY v' \
  || fail "workload query not in trace ring"

# --- diagnosis (DIFF) metrics ------------------------------------------------
# Ingest two synthetic bench runs over the wire with pt_perf_ingest, then
# DIFF them with ptquery --connect: the pt_diag_* counters and the diff
# latency histogram must register and move. (This runs after the /traces
# assertions — the ingest workload rolls the recent-query ring.)

cat > "$WORK/BENCH_smokebench.json" <<'EOF'
[{"phase": "probe", "table_rows": 1000, "ttfr_ms": 2.0, "total_ms": 40.0}]
EOF
"$BIN/pt_perf_ingest" --connect "127.0.0.1:$PORT" ingest runA \
  "$WORK/BENCH_smokebench.json" >/dev/null || fail "wire ingest of run A"
sed -i 's/"total_ms": 40.0/"total_ms": 90.0/' "$WORK/BENCH_smokebench.json"
"$BIN/pt_perf_ingest" --connect "127.0.0.1:$PORT" ingest runB \
  "$WORK/BENCH_smokebench.json" >/dev/null || fail "wire ingest of run B"

DIFF_OUT="$("$BIN/ptquery" --connect "127.0.0.1:$PORT" diff \
  smokebench@runA smokebench@runB)" || fail "DIFF over the wire"
printf '%s\n' "$DIFF_OUT" | grep -q 'ranked explanations' \
  || fail "DIFF output missing ranked explanations: $DIFF_OUT"
printf '%s\n' "$DIFF_OUT" | grep -q 'total_ms' \
  || fail "DIFF did not rank the planted total_ms divergence"

RESP="$(scrape /metrics)" || fail "diag scrape"
printf '%s\n' "$RESP" | grep -q '^pt_diag_diffs_total [1-9]' \
  || fail "pt_diag_diffs_total did not move after a wire DIFF"
printf '%s\n' "$RESP" | grep -q '^pt_diag_pairs_aligned_total [1-9]' \
  || fail "pt_diag_pairs_aligned_total did not move"
printf '%s\n' "$RESP" | grep -q '^pt_diag_divergences_total [1-9]' \
  || fail "pt_diag_divergences_total did not move"
printf '%s\n' "$RESP" | grep -q '^pt_diag_diff_ms_count [1-9]' \
  || fail "pt_diag_diff_ms histogram recorded no observations"

NOPE="$(scrape /nope)" || fail "404 scrape"
printf '%s\n' "$NOPE" | head -1 | grep -q '^HTTP/1\.0 404' || fail "/nope not 404"
kill -0 "$SRV_PID" 2>/dev/null || fail "daemon died after unknown-path request"

# --- clean drain -------------------------------------------------------------

kill -TERM "$SRV_PID"
{ wait "$SRV_PID"; status=$?; } 2>/dev/null
SRV_PID=""
[ "$status" -eq 0 ] || fail "server exited $status on SIGTERM drain"

echo "OK: metrics endpoint scraped, counters live, traces populated, 404 handled"
