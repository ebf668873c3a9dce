#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and
# runs it, passing every argument through:
#
#   bash perfbench/run.sh --workload sim-quick --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and span files stay inside the
# checkout, under $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out"
out=$(cd "$out" && pwd)
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" --spans "$out/spans" "$@"
