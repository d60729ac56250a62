#!/usr/bin/env bash
# Builds twsimd and the benchmark from the sources in the current directory
# (the repository root) and runs the benchmark with the arguments given,
# e.g.:
#
#   bash perfbench/run.sh --workload band8-knn --seed 1 --seconds 10 --trace 0
#
# Build outputs go to .bench_build/ and run files to .bench_out/, both under
# the current directory.
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/twsimd" ]; then
	echo "perfbench/run.sh: run from the repository root (no go.mod or cmd/twsimd in $root)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOTELEMETRY=off GOFLAGS=-mod=mod CGO_ENABLED=0
go build -o "$build/twsimd" ./cmd/twsimd
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --root "$root" --twsimd "$build/twsimd" "$@"
