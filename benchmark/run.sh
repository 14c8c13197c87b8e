#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs one workload:
#
#   bash benchmark/run.sh --workload lulesh-trace --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the checkout. The Go build cache and the binary
# live under .bench_build/ in the checkout, so nothing is written outside it.
# In a directory without the capi module beside benchmark/ the build fails
# and the script exits non-zero without printing a result.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache"
export GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off

(cd "$root/benchmark" && go build -o "$out/capibench" .) >&2
exec "$out/capibench" -out "$out" "$@"
