#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the root of the working
# tree; every argument is passed on (see perfbench/README.md):
#
#   bash perfbench/run.sh --workload chan-d64 --seed 1 --seconds 30 --trace 0
#
# Build cache, binary, trace files and worker scratch files all stay under
# .bench_build/ in the working tree.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go -C "$root/perfbench" build -o "$out/perfbench" .
# Not exec: the benchmark reports the peak RSS of its child processes, and
# an exec'd process would inherit the go build above as a reaped child.
"$out/perfbench" --out "$out" "$@"
