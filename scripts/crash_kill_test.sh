#!/usr/bin/env bash
# crash_kill_test.sh — end-to-end crash/recovery smoke test with a REAL crash.
#
# The in-process crash matrix (tests/minidb/crash_matrix_test.cpp) simulates
# power loss by throwing from a fault-injecting VFS. This script closes the
# remaining gap: it SIGKILLs an actual ptdfload process mid-commit (via the
# PT_DEBUG_CRASH_AT hook), so no destructor, flush, or exit handler runs.
# Each crash leaves a stale `<db>.wal` behind (ptdfload's default, and only
# crash-safe, durability mode); the reopen must replay the committed prefix
# (kill landed after the commit fsync, e.g. mid-checkpoint) or discard the
# torn tail (kill landed mid-append) — reported with a "recovered:" line —
# and the interrupted load must then succeed.
#
# Usage: crash_kill_test.sh <cli-bin-dir>
set -u

BIN="${1:?usage: crash_kill_test.sh <cli-bin-dir>}"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

fail() { echo "FAIL: $*" >&2; exit 1; }

# Two distinct executions (different seeds): run1 seeds the store, run2 is
# the load we crash.
"$BIN/ptgen" irs "$WORK/run1" frost 8 1 >/dev/null || fail "ptgen run1"
"$BIN/ptgen" irs "$WORK/run2" frost 8 2 >/dev/null || fail "ptgen run2"
printf 'irs %s frost\nirs %s frost\n' "$WORK/run1" "$WORK/run2" > "$WORK/index.txt"
"$BIN/ptdfgen" "$WORK/index.txt" "$WORK/ptdf" >/dev/null || fail "ptdfgen"

WALBASE="$WORK/walbase.db"
"$BIN/ptdfload" "$WALBASE" "$WORK/ptdf/run1.ptdf" >/dev/null \
  || fail "wal: seed load of run1"
[ -e "$WALBASE.wal" ] && fail "wal: clean load left a WAL behind"
[ -e "$WALBASE.journal" ] && fail "wal: clean load left a journal behind"

# One crashed WAL trial: SIGKILL the run2 load at disk op $1, then verify
# recovery. Sets wal_outcome to replayed | discarded | none.
wal_trial() {
  local op="$1"
  local DB="$WORK/wtrial_$op.db"
  rm -f "$DB" "$DB.wal"
  cp "$WALBASE" "$DB"
  PT_DEBUG_CRASH_AT=$op "$BIN/ptdfload" "$DB" "$WORK/ptdf/run2.ptdf" >/dev/null 2>&1 &
  { wait $!; status=$?; } 2>/dev/null
  if [ "$status" -ne 137 ] && [ "$status" -ne 0 ]; then
    fail "wal op $op: expected SIGKILL (137) or clean exit, got $status"
  fi
  wal_outcome=none
  if [ -e "$DB.wal" ] && [ -s "$DB.wal" ]; then
    # Stale WAL: the reopen must report recovery and remove it. Re-loading
    # run2 is idempotent, so the redo is safe even when the WAL already
    # held the complete commit.
    out="$("$BIN/ptdfload" "$DB" "$WORK/ptdf/run2.ptdf")" \
      || fail "wal op $op: reload after crash"
    echo "$out" | grep -q "^recovered:" \
      || fail "wal op $op: reload did not report recovery"
    if echo "$out" | grep -q "^recovered: replayed"; then
      wal_outcome=replayed
    else
      wal_outcome=discarded
    fi
    [ -e "$DB.wal" ] && fail "wal op $op: WAL still present after clean reload"
  fi
  "$BIN/ptquery" "$DB" check >/dev/null || fail "wal op $op: store inconsistent"
  if [ "$wal_outcome" != none ]; then
    "$BIN/ptquery" "$DB" executions | grep -q "irs-frost-np8-s2" \
      || fail "wal op $op: run2 missing after recovery + reload"
  fi
}

# Find T = one past the load's total disk-op count (smallest crash index
# that never fires), so late crash points can be aimed at the close-time
# checkpoint: its page writes, fsyncs, and truncates are the final ops.
lo=1
hi=64
while :; do
  DB="$WORK/probe.db"
  rm -f "$DB" "$DB.wal"
  cp "$WALBASE" "$DB"
  PT_DEBUG_CRASH_AT=$hi "$BIN/ptdfload" "$DB" "$WORK/ptdf/run2.ptdf" >/dev/null 2>&1 &
  { wait $!; status=$?; } 2>/dev/null
  [ "$status" -eq 0 ] && break
  lo=$hi
  hi=$((hi * 2))
  [ "$hi" -gt 4194304 ] && fail "wal: cannot bound the load's disk-op count"
done
while [ $((lo + 1)) -lt "$hi" ]; do
  mid=$(((lo + hi) / 2))
  DB="$WORK/probe.db"
  rm -f "$DB" "$DB.wal"
  cp "$WALBASE" "$DB"
  PT_DEBUG_CRASH_AT=$mid "$BIN/ptdfload" "$DB" "$WORK/ptdf/run2.ptdf" >/dev/null 2>&1 &
  { wait $!; status=$?; } 2>/dev/null
  if [ "$status" -eq 0 ]; then hi=$mid; else lo=$mid; fi
done
T=$hi

wal_replays=0
wal_discards=0
# Early/mid ops land in the WAL append (torn tail → discarded); ops close
# to T land in the close-time checkpoint (commit already fsynced →
# replayed); T itself exercises the no-crash path (no WAL left behind).
for op in 1 2 5 20 $((T / 4)) $((T / 2)) $((3 * T / 4)) $((T - 2)) $((T - 5)) "$T"; do
  [ "$op" -ge 1 ] || continue
  wal_trial "$op"
  case "$wal_outcome" in
    replayed) wal_replays=$((wal_replays + 1)) ;;
    discarded) wal_discards=$((wal_discards + 1)) ;;
  esac
done

[ "$wal_replays" -ge 1 ] \
  || fail "wal: no crash point exercised committed-WAL replay (mid-checkpoint kill)"
[ "$wal_discards" -ge 1 ] \
  || fail "wal: no crash point exercised torn-tail discard (mid-append kill)"

echo "OK: WAL sweep (T=$T): $wal_replays replay(s), $wal_discards torn-tail discard(s)"
