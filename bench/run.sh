#!/usr/bin/env bash
# Builds press-bench once into bench/out/ and runs it from the repository
# root with the arguments given. No arguments: the whole suite, untraced
# then traced per workload, into bench/out/result.json. -workload NAME,
# -seed N, -trace-only and -runs N pass through, as do the PR driver's
# --workload NAME --seed N --seconds S --trace 0|1 (BENCHMARK.json).
# The build reads only this checkout and the Go installation, and
# everything the build and the run write stays under bench/out/.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/bench/out"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOPATH="$out/gopath" GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd bench && go build -o "$out/press-bench" ./cmd/press-bench)
exec "$out/press-bench" "$@"
