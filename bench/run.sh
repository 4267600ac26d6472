#!/usr/bin/env bash
# Builds the benchmark and runs it from the repository root, keeping the
# Go build cache and every temporary file under .bench_build/ so a run
# reads and writes only inside the checkout. Arguments go to the
# benchmark, e.g.
#
#   bash bench/run.sh --workload sweep-map --seed 1 --seconds 15 --trace 0
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/gopath"
export GOCACHE="$out/go-cache" GOPATH="$out/gopath" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd bench && go build -o "$out/bin/bench" .)
exec "$out/bin/bench" "$@"
