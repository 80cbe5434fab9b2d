#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given flags.  Run from the checkout root:
#
#   bash perfbench/run.sh --workload node-rtt-8b --seed 1 --seconds 16 --trace 0
#
# Everything the build writes (the Go build cache included) stays under
# .bench_build in the checkout.
set -euo pipefail

root=$(pwd)
out=$root/.bench_build
mkdir -p "$out/gocache" "$out/gopath" "$out/config" "$out/tmp"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOMODCACHE=$out/gopath/pkg/mod GOTMPDIR=$out/tmp
export XDG_CONFIG_HOME=$out/config GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
