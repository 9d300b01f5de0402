#!/usr/bin/env bash
# Builds qlaserve and the load generator from this checkout's sources,
# then runs the benchmark. Run it from the repository root:
#
#   bash perfbench/run.sh --workload run-hot --seed 1 --seconds 30 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the
# checkout, the Go build cache included.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off

go build -o "$out/qlaserve" ./cmd/qlaserve
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -server "$out/qlaserve" -work "$out" "$@"
