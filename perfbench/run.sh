#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
# Usage (from the repository root):
#   bash perfbench/run.sh --workload scan-burst --seed 1 --seconds 12 --trace 0
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/go-cache" "$out/go-tmp"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/go-tmp" GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --out "$out/perfbench-out" "$@"
