#!/usr/bin/env bash
# The command of BENCHMARK.json: build esgperf from source, then run it
# with the arguments given. Run from the root of a checkout:
#
#   bash bench/run.sh --workload tcp-get --seed 1 --seconds 12 --trace 0
#   bash bench/run.sh                # all six workloads, one process each
#   bash bench/run.sh -aa 5          # A/A check of the bounds
#
# Everything it writes stays inside the checkout: the Go build and module
# caches, the toolchain's own config files and the binary go under
# .bench_build/, the tcp workloads' files under .bench_build/tmp/, traces
# and result files under bench/out/.
set -euo pipefail

# Without the program's sources there is nothing to measure: say so and
# start nothing.
if [ ! -f go.mod ]; then
  echo "bench/run.sh: no go.mod in $PWD: run from the root of a checkout" >&2
  exit 1
fi

build="$PWD/.bench_build"
mkdir -p "$build/gotmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/gotmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=

# With no mode file the go command runs in telemetry mode "local", and in
# a config directory it has not seen it starts a detached sidecar process
# that outlives it. Turn telemetry off before the first go command, so
# that no process is left behind a run.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off > "$XDG_CONFIG_HOME/go/telemetry/mode"

# A no-op after the first run: the build cache decides.
go build -o "$build/esgperf" ./bench
exec "$build/esgperf" "$@"
