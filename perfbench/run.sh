#!/usr/bin/env bash
# Runs one benchmark run from the root of a checkout:
#
#   bash perfbench/run.sh --workload mechanisms --seed 1 --seconds 10 --trace 0
#
# It first builds dpserver and datagen from the working tree, and the
# benchmark's driver and tracer, into .bench_build/perfbench (with the Go
# build cache there too), so nothing is compiled once a clock runs. The
# last line of standard output is the run's JSON result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/work"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go build -o "$out/dpserver" ./cmd/dpserver
go build -o "$out/datagen" ./cmd/datagen
(cd perfbench && go build -o "$out/driver" ./driver && go build -o "$out/tracer" ./tracer)

exec "$out/driver" --bin "$out" --work "$out/work" "$@"
