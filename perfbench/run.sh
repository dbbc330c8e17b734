#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs it, passing every
# argument through.  Run it from the repository root:
#
#   bash perfbench/run.sh --workload served-durable --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --dir "$out/perfbench-runs" "$@"
