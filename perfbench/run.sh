#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout's sources and runs it.
# Usage, from the root of a checkout:
#   bash perfbench/run.sh --workload stationary --seed 1 --seconds 10 --trace 0
# Every build artefact (binary, Go build cache, temp files, span dumps)
# stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off
export CGO_ENABLED=0
go -C perfbench build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
