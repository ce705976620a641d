#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it from the
# checkout root:
#
#   bash perfbench/run.sh --workload eng-offline --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh steady --workload lt4-live --runs 10 --seconds 10
#
# Build outputs, Go's build cache and the runs' scratch stores all stay in
# the checkout, under $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail
root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	GOTOOLCHAIN=local GOFLAGS=-mod=mod
(cd "$(dirname "$0")" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --workdir "$out/work" --tracedir "$out/trace" "$@"
