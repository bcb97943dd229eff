#!/usr/bin/env bash
# Builds the simulator benchmark from the surrounding checkout and runs it.
# Usage: perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run from the root of a checkout. Build artifacts, the Go build cache and
# span dumps stay under .bench_build/ in that checkout.
set -euo pipefail
root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off
go -C "$root/perfbench" build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
