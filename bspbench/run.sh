#!/usr/bin/env bash
# Builds the benchmark from source and runs it, passing every argument on:
#
#   bash bspbench/run.sh --workload ocean-tcp --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root (or any checkout of it). The build, the
# Go build cache and the traced run's superstep ledger all stay in
# .bench_build/ at the root of the checkout.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off
export GOFLAGS=-buildvcs=false GOWORK=off

(cd "$here" && go build -o "$out/bspbench" .)

exec "$out/bspbench" -ledger-dir "$out" "$@"
