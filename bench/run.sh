#!/usr/bin/env bash
# Builds the benchmark and cmd/coemud from source, then runs the
# benchmark with the given arguments:
#
#   bash bench/run.sh --workload stream-als --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh --seed 1            # every workload, both passes
#
# Everything the build and the run write stays under .bench_build/ in
# the repository root, the Go build cache included, so a fresh checkout
# builds from scratch on its first run.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly

(cd "$root/bench" && go build -o "$build/bin/bench" .)
(cd "$root" && go build -o "$build/bin/coemud" ./cmd/coemud)
exec "$build/bin/bench" -root "$root" -coemud "$build/bin/coemud" -out "$build/out" "$@"
