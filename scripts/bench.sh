#!/usr/bin/env bash
# Run the full E1–E25 benchmark suite and emit machine-readable results,
# including the -benchmem figures (B/op, allocs/op) next to ns/op.
#
# Usage: scripts/bench.sh [output.json] [benchtime]
#   output.json  defaults to BENCH_1.json
#   benchtime    passed to -benchtime; defaults to 1x for a quick sweep
#                (use e.g. 2s for stable numbers)
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-BENCH_1.json}"
benchtime="${2:-1x}"

go test -run '^$' -bench . -benchmem -benchtime "$benchtime" -timeout 30m . \
  | tee /dev/stderr \
  | go run ./cmd/benchjson -o "$out"
