#!/usr/bin/env bash
# Builds the benchmark from the checkout it runs in and runs it:
#
#   bash _bench/run.sh --workload grid-warm|run-open|fleet-cold|all \
#       --seed N --seconds S --trace 0|1
#
# Run from the repository root. Every build and run artifact stays in
# .bench_build under the current directory.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/_bench/go.mod" ]]; then
	echo "run.sh: run from the repository root (go.mod and _bench/go.mod not found)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off GOENV=off
(cd "$root/_bench" && go build -o "$out/bench" .)
exec "$out/bench" "$@"
