#!/usr/bin/env bash
# Run a fresh benchmark sweep and diff it against a committed baseline,
# flagging per-benchmark slowdowns beyond 10% — and B/op or allocs/op growth
# beyond the same gate for benchmarks whose baseline recorded -benchmem
# figures (a baseline without them gates ns/op only).
#
# Usage: scripts/benchdiff.sh [baseline.json] [benchtime]
#   baseline.json  defaults to BENCH_1.json (the committed sweep, a stable
#                  -benchtime 2s run)
#   benchtime      passed to -benchtime; defaults to 1x (quick + noisy —
#                  use e.g. 2s before trusting a flagged regression)
#
# Environment:
#   BENCHDIFF_FAIL=1      exit 1 on regressions (CI gates on this)
#   BENCHDIFF_REPORT=dir  keep the fresh sweep JSON and the diff report in
#                         dir (for artifact upload); otherwise the sweep is
#                         a temp file and the report goes to stdout only
#   BENCHDIFF_PER_BENCH   per-benchmark gate overrides (regex=pct,...);
#                         defaults to a wider 40% band for the WAL fsync
#                         benches (E7 durability, E20 group commit), whose
#                         timers measure disk sync latency and swing far
#                         more run-to-run than the compute-bound benches,
#                         60% for E21, whose locked arm measures lock
#                         convoy wait times behind a think-time writer,
#                         40% for E22, whose cached arms are sub-µs serves
#                         sensitive to scheduler noise and whose stale-serve
#                         arm races a background writer, 40% for E23,
#                         whose row-path arms are GC-heavy full scans that
#                         swing with heap state run-to-run, and 40% for E25,
#                         whose CSR arms are tens-of-ms traversals sensitive
#                         to GC pacing and whose ColdBuild arm re-interns a
#                         56k-edge dictionary per iteration
set -euo pipefail
cd "$(dirname "$0")/.."

baseline="${1:-BENCH_1.json}"
benchtime="${2:-1x}"

if [ ! -f "$baseline" ]; then
  echo "benchdiff.sh: baseline $baseline not found" >&2
  exit 2
fi

if [ -n "${BENCHDIFF_REPORT:-}" ]; then
  mkdir -p "$BENCHDIFF_REPORT"
  fresh="$BENCHDIFF_REPORT/bench_fresh.json"
  report="$BENCHDIFF_REPORT/benchdiff.txt"
else
  fresh="$(mktemp --suffix=.json)"
  report=/dev/null
  trap 'rm -f "$fresh"' EXIT
fi

echo "== bench sweep (-benchtime $benchtime)"
go test -run '^$' -bench . -benchmem -benchtime "$benchtime" -timeout 30m . \
  | go run ./cmd/benchjson -o "$fresh"

echo "== diff vs $baseline"
failflag=()
if [ "${BENCHDIFF_FAIL:-0}" = "1" ]; then
  failflag=(-fail)
fi
per_bench="${BENCHDIFF_PER_BENCH:-E7WALDurability=40,E20GroupCommit=40,E21SnapshotReads=60,E22ResultCache=40,E23Vectorized=40,E24ShardedScan=60,E25CSRTraversal=40}"
go run ./cmd/benchdiff "${failflag[@]}" -per-bench "$per_bench" "$baseline" "$fresh" | tee "$report"
