#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it.
# Run from the repository root:
#   bash perfbench/run.sh --workload codec --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh diff old.txt new.txt
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/perfbench/go.mod" ] || [ ! -f "$root/go.mod" ]; then
	echo "perfbench: run from the repository root (perfbench/go.mod and go.mod must exist)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off
# Build to a temporary name and rename, so an interrupted build never
# leaves a half-written binary behind.
(cd "$root/perfbench" && go build -o "$out/perfbench.new" .)
mv -f "$out/perfbench.new" "$out/perfbench"
exec "$out/perfbench" "$@"
