#!/usr/bin/env bash
# Builds the simulator and the benchmark from the source tree it sits in,
# then runs one benchmark invocation. Run from the repository root:
#
#   bash perfbench/run.sh --workload paper-sweep --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write (Go build cache, binaries,
# daemon data directories, profiles) stays under .bench_build/.
set -euo pipefail

root=$PWD
out=$root/.bench_build
mkdir -p "$out/tmp"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp TMPDIR=$out/tmp PPROF_TMPDIR=$out/tmp
export GOENV=off GOTOOLCHAIN=local GOFLAGS= CGO_ENABLED=0

go build -o "$out/ricasim" ./cmd/ricasim
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -build "$out" "$@"
