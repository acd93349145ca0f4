#!/usr/bin/env bash
# server_kill_test.sh — SIGKILL a live ptserverd mid-commit, restart, verify
# recovery. The daemon runs in its default WAL mode with a small
# autocheckpoint: the restart replays the committed WAL prefix or discards a
# torn tail, and the low threshold makes some kills land mid-checkpoint.
#
# Companion to crash_kill_test.sh: that script crashes a single-process
# loader; this one crashes the daemon while remote clients are writing
# through the wire protocol (ptquery --connect), so the whole
# client → frame → session → gate → engine → pager → WAL path is live when
# the process dies. PT_DEBUG_CRASH_AT=<n> SIGKILLs the daemon at the n-th
# disk write/sync/truncate — no destructor, drain, or flush runs. A plain
# restart must then recover the stale WAL, report it, and serve a
# consistent store to new clients.
#
# Usage: server_kill_test.sh <cli-bin-dir>
set -u

BIN="${1:?usage: server_kill_test.sh <cli-bin-dir>}"
WORK="$(mktemp -d)"
SRV_PID=""
cleanup() {
  [ -n "$SRV_PID" ] && kill -9 "$SRV_PID" 2>/dev/null
  rm -rf "$WORK"
}
trap cleanup EXIT

fail() { echo "FAIL: $*" >&2; exit 1; }

# Starts ptserverd on db $1 (remaining args pass through), scrapes the
# ephemeral port into $PORT, leaves the pid in $SRV_PID.
start_server() {
  local db="$1"
  shift
  : > "$WORK/srv.out"
  : > "$WORK/srv.err"
  "$BIN/ptserverd" --listen 127.0.0.1:0 --workers 2 "$@" "$db" \
    > "$WORK/srv.out" 2> "$WORK/srv.err" &
  SRV_PID=$!
  for _ in $(seq 1 200); do
    PORT="$(sed -n 's/^listening on 127\.0\.0\.1:\([0-9][0-9]*\)$/\1/p' "$WORK/srv.out")"
    [ -n "$PORT" ] && return 0
    kill -0 "$SRV_PID" 2>/dev/null || return 1
    sleep 0.02
  done
  return 1
}

# Reaps $SRV_PID, accepting only the listed exit codes. Keeps bash's
# job-control "Killed" message for SIGKILLed children out of the log.
stop_wait() {
  local status
  { wait "$SRV_PID"; status=$?; } 2>/dev/null
  SRV_PID=""
  for ok in "$@"; do
    [ "$status" -eq "$ok" ] && return 0
  done
  fail "server exited $status (wanted: $*)"
}

sql() { "$BIN/ptquery" --connect "127.0.0.1:$PORT" sql "$1"; }

# Scalar SELECT result: output is <header>, <value>, "(1 rows)".
scalar() { sql "$1" | sed -n 2p; }

# --- seed: build a small store through the daemon, drain it cleanly ----------

DB="$WORK/store.db"
start_server "$DB" || fail "seed server did not come up"
sql "CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)" >/dev/null \
  || fail "seed CREATE TABLE over the wire"
for i in 1 2 3; do
  sql "INSERT INTO t (v) VALUES ($i)" >/dev/null || fail "seed insert $i"
done
kill -TERM "$SRV_PID"
stop_wait 0
[ -s "$DB.wal" ] && fail "clean SIGTERM drain left a stale WAL"
grep -q "drained, closing store" "$WORK/srv.out" || fail "drain message missing"

# The crash sweep. Crashes at a spread of disk-operation indices: early
# (log header), mid (WAL append), late (commit point / autocheckpoint), and
# past-the-end (no crash at all — exercises the survive + drain branch).
# The tiny autocheckpoint makes commits fold back into the db file every few
# inserts, so late crash points land mid-checkpoint.
flags=(--wal-autocheckpoint 4)
hot_logs=0
for op in 1 2 3 5 8 12 20 28 36 100000; do
  TRIAL="$WORK/trial_$op.db"
  cp "$DB" "$TRIAL"

  PT_DEBUG_CRASH_AT=$op start_server "$TRIAL" "${flags[@]}" \
    || fail "trial $op: no port line"

  # Hammer inserts until one fails (daemon SIGKILLed mid-commit) or we run
  # out of budget (crash point beyond the workload).
  wrote=0
  for _ in $(seq 1 60); do
    if sql "INSERT INTO t (v) VALUES (100)" >/dev/null 2>&1; then
      wrote=$((wrote + 1))
    else
      break
    fi
  done

  if kill -0 "$SRV_PID" 2>/dev/null; then
    kill -TERM "$SRV_PID"
  fi
  stop_wait 0 137

  log_hot=0
  if [ -s "$TRIAL.wal" ]; then
    log_hot=1
    hot_logs=$((hot_logs + 1))
  fi

  # Restart the daemon on the crashed store: recovery happens at open, is
  # reported on stderr, and the store must serve new clients immediately.
  start_server "$TRIAL" "${flags[@]}" || fail "trial $op: restart did not come up"
  if [ "$log_hot" -eq 1 ]; then
    grep -q "recovered:" "$WORK/srv.err" \
      || fail "trial $op: restart over a stale WAL did not report recovery"
  fi

  # Autocommit inserts are atomic: the table is exactly a prefix of the
  # workload. No holes (COUNT == MAX(id)), no torn values, and the one
  # insert whose reply the kill cut off may or may not have committed.
  count="$(scalar 'SELECT COUNT(*) FROM t')" || fail "trial $op: count query"
  maxid="$(scalar 'SELECT MAX(id) FROM t')" || fail "trial $op: max query"
  [ "$count" = "$maxid" ] || fail "trial $op: holes in id space ($count != $maxid)"
  torn="$(scalar 'SELECT COUNT(*) FROM t WHERE id > 3 AND v <> 100')" \
    || fail "trial $op: torn-value query"
  [ "$torn" = "0" ] || fail "trial $op: $torn torn row(s) after recovery"
  [ "$count" -ge $((3 + wrote)) ] || fail "trial $op: lost acknowledged insert(s)"
  [ "$count" -le $((3 + wrote + 1)) ] || fail "trial $op: phantom insert(s)"

  # The recovered store must take new writes through the daemon.
  sql "INSERT INTO t (v) VALUES (200)" >/dev/null \
    || fail "trial $op: post-recovery insert"
  after="$(scalar 'SELECT COUNT(*) FROM t')"
  [ "$after" = "$((count + 1))" ] || fail "trial $op: post-recovery insert not visible"

  kill -TERM "$SRV_PID"
  stop_wait 0
  if [ -e "$TRIAL.wal" ] && [ -s "$TRIAL.wal" ]; then
    fail "trial $op: clean drain left a stale WAL"
  fi

  # Offline integrity pass over the same file the daemon just served.
  "$BIN/ptquery" "$TRIAL" sql "SELECT COUNT(*) FROM t" >/dev/null \
    || fail "trial $op: store unreadable offline"
done

[ "$hot_logs" -ge 1 ] || fail "no crash point left a stale WAL; matrix not exercised"
echo "OK: $hot_logs stale WAL file(s) recovered through ptserverd restarts"
