#!/usr/bin/env bash
# Smoke-runs the headline benchmarks with a short measurement budget and
# leaves machine-readable JSON next to the binaries:
#
#   BENCH_fig3.json   google-benchmark output of bench_fig3_querysession
#                     (family/total match-count latency, the pr-filter hot
#                     path, plus the exec-degree {1,2,4,8} thread sweep)
#   BENCH_query_scaling.json
#                     closure-table ablation plus the morsel-parallel degree
#                     sweep and the vectorized batch-size sweep
#                     ({64,256,1024,4096} rows per batch) over a synthetic
#                     aggregate; sweep entries carry `threads`/`batch_rows`
#                     and `rows` counters. The smoke shrinks the table via
#                     PT_SCALING_ROWS — run the binary without it for the
#                     full 1M-row acceptance sweep.
#   BENCH_table1.json per-dataset ingest rows from bench_table1_ingest
#                     (Table 1 load path: results/exec, DB growth, load time)
#   BENCH_durability.json ingest throughput across none/wal durability
#                     from bench_durability (rows/s, ms/commit), plus the
#                     wal-group cells: group-commit fsync sharing at
#                     1/2/4/8 concurrent committers (fsyncs_per_commit)
#   BENCH_cursor.json streamed (row-at-a-time) vs batched (fetchBatch) vs
#                     materialized result drains from bench_cursor
#                     (time-to-first-row, peak-RSS growth, row-vs-batch A/B)
#   BENCH_server.json ptserverd under N concurrent clients from bench_server
#                     (requests/s and p50/p99 latency, plus a streamed scan
#                     and the read_during_commit_wal cell: reader
#                     latency behind a committing writer, served from WAL
#                     snapshot reads, and export_execution: a remote
#                     PTdf export of a Frost IRS np16 run, lines/s);
#                     every row carries frames_per_req, the server frames
#                     per request, and the smoke fails without it, without
#                     the export_execution row, or when that row's
#                     frames_per_req (frames per exported line) is >= 1
#   BENCH_obs.json    observability overhead A/B from bench_obs (tracing
#                     on/off ns per point-SELECT, overhead %, 2% budget)
#   BENCH_resource_match.json
#                     legacy SQL vs inverted-index pr-filter matching from
#                     bench_resource_match (8 families x 100k foci; full
#                     match, count-only popcount, and top-K early
#                     termination, with `speedup` per invidx row)
#   BENCH_diag.json   google-benchmark output of bench_diag (DIFF latency on
#                     a Frost IRS np16 pair and an SMG-UV np128 pair, with
#                     `results` and `aligned` counters per pair)
#
# Every run also leaves a METRICS_<name>.prom sidecar — the Prometheus
# exposition of the process's metrics registry at exit (PT_METRICS_SNAPSHOT)
# — so a perf regression hunt can see the engine counters (pages read,
# fsyncs, plan-cache hits) behind each number. The sidecars are format-checked
# but never gated: a malformed snapshot warns, numbers never fail the smoke.
#
# Wired into CTest under the "bench" label (ctest -L bench). Compare two
# checkouts by diffing the JSON files the runs leave behind.
#
# Usage: bench_smoke.sh [bench-dir] [out-dir]
#   bench-dir  directory holding the bench binaries (default: build/bench
#              relative to the repo root)
#   out-dir    where to write the JSON files (default: bench-dir)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
bench_dir="${1:-$repo_root/build/bench}"
out_dir="${2:-$bench_dir}"
mkdir -p "$out_dir"

for bin in bench_fig3_querysession bench_query_scaling bench_table1_ingest bench_durability bench_cursor bench_server bench_obs bench_resource_match bench_diag; do
  if [[ ! -x "$bench_dir/$bin" ]]; then
    echo "bench_smoke: $bench_dir/$bin not built" >&2
    exit 1
  fi
done

# Non-gating sanity pass over a metrics sidecar: it must exist, carry at
# least one TYPE comment, and every TYPE line must be well-formed. Warn-only
# by design — observability must never fail the bench smoke.
check_snapshot() {
  local snap="$1"
  if [[ ! -s "$snap" ]]; then
    echo "bench_smoke: WARNING: no metrics snapshot at $snap" >&2
    return 0
  fi
  if ! grep -q '^# TYPE ' "$snap"; then
    echo "bench_smoke: WARNING: $snap has no '# TYPE' lines" >&2
    return 0
  fi
  local bad
  bad="$(grep '^# TYPE ' "$snap" \
    | grep -Ev '^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram)$' || true)"
  if [[ -n "$bad" ]]; then
    echo "bench_smoke: WARNING: malformed TYPE line(s) in $snap:" >&2
    echo "$bad" >&2
  fi
  return 0
}

echo "== bench_fig3_querysession (short run) =="
PT_METRICS_SNAPSHOT="$out_dir/METRICS_fig3.prom" \
  "$bench_dir/bench_fig3_querysession" \
  --benchmark_min_time=0.05 \
  --benchmark_out="$out_dir/BENCH_fig3.json" \
  --benchmark_out_format=json
check_snapshot "$out_dir/METRICS_fig3.prom"

echo "== bench_query_scaling (degree + batch-size sweeps, short run) =="
PT_SCALING_ROWS=120000 \
  PT_METRICS_SNAPSHOT="$out_dir/METRICS_query_scaling.prom" \
  "$bench_dir/bench_query_scaling" \
  --benchmark_min_time=0.05 \
  --benchmark_out="$out_dir/BENCH_query_scaling.json" \
  --benchmark_out_format=json
check_snapshot "$out_dir/METRICS_query_scaling.prom"

echo "== bench_table1_ingest =="
PT_TABLE1_JSON="$out_dir/BENCH_table1.json" \
  PT_METRICS_SNAPSHOT="$out_dir/METRICS_table1.prom" \
  "$bench_dir/bench_table1_ingest"
check_snapshot "$out_dir/METRICS_table1.prom"

echo "== bench_durability =="
PT_DURABILITY_JSON="$out_dir/BENCH_durability.json" \
  PT_METRICS_SNAPSHOT="$out_dir/METRICS_durability.prom" \
  "$bench_dir/bench_durability"
check_snapshot "$out_dir/METRICS_durability.prom"

echo "== bench_cursor =="
PT_CURSOR_JSON="$out_dir/BENCH_cursor.json" \
  PT_METRICS_SNAPSHOT="$out_dir/METRICS_cursor.prom" \
  "$bench_dir/bench_cursor"
check_snapshot "$out_dir/METRICS_cursor.prom"

echo "== bench_server =="
PT_SERVER_JSON="$out_dir/BENCH_server.json" \
  PT_METRICS_SNAPSHOT="$out_dir/METRICS_server.prom" \
  "$bench_dir/bench_server"
check_snapshot "$out_dir/METRICS_server.prom"
# Unlike the numbers, the frames_per_req field itself is required.
if ! grep -q '"phase"' "$out_dir/BENCH_server.json" ||
   grep '"phase"' "$out_dir/BENCH_server.json" | grep -vq '"frames_per_req": '; then
  echo "bench_smoke: BENCH_server.json rows must all carry frames_per_req" >&2
  exit 1
fi
# A remote export reads its execution in a fixed handful of statements: a
# frame per exported line or more means it went back to per-result reads.
export_frames="$(grep '"phase": "export_execution"' "$out_dir/BENCH_server.json" |
                 sed -n 's/.*"frames_per_req": \([^}]*\)}.*/\1/p')"
if [ -z "$export_frames" ]; then
  echo "bench_smoke: BENCH_server.json has no export_execution row" >&2
  exit 1
fi
if ! awk -v f="$export_frames" 'BEGIN { exit !(f < 1) }'; then
  echo "bench_smoke: export_execution takes $export_frames frames per line (must be < 1)" >&2
  exit 1
fi

echo "== bench_obs =="
PT_OBS_JSON="$out_dir/BENCH_obs.json" \
  PT_METRICS_SNAPSHOT="$out_dir/METRICS_obs.prom" \
  "$bench_dir/bench_obs"
check_snapshot "$out_dir/METRICS_obs.prom"

echo "== bench_resource_match =="
PT_RESOURCE_MATCH_JSON="$out_dir/BENCH_resource_match.json" \
  PT_METRICS_SNAPSHOT="$out_dir/METRICS_resource_match.prom" \
  "$bench_dir/bench_resource_match"
check_snapshot "$out_dir/METRICS_resource_match.prom"

echo "== bench_diag (short run) =="
PT_METRICS_SNAPSHOT="$out_dir/METRICS_diag.prom" \
  "$bench_dir/bench_diag" \
  --benchmark_min_time=0.05 \
  --benchmark_out="$out_dir/BENCH_diag.json" \
  --benchmark_out_format=json
check_snapshot "$out_dir/METRICS_diag.prom"

echo "bench_smoke: wrote $out_dir/BENCH_fig3.json, $out_dir/BENCH_query_scaling.json, $out_dir/BENCH_table1.json, $out_dir/BENCH_durability.json, $out_dir/BENCH_cursor.json, $out_dir/BENCH_server.json, $out_dir/BENCH_obs.json, $out_dir/BENCH_resource_match.json, and $out_dir/BENCH_diag.json (plus METRICS_*.prom sidecars)"
