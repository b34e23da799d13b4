#!/usr/bin/env bash
# Builds perfbench from source and runs it with the given flags. Run it
# from the repository root:
#
#   bash perfbench/run.sh --workload mlp-http --seed 1 --seconds 20 --trace 0
#
# The Go build cache, the binary, the fixture cache and every scratch file
# stay under .bench_build/ in the current directory.
set -euo pipefail
build="$(pwd)/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" GOFLAGS="" GOWORK=off GOTOOLCHAIN=local
(cd perfbench && go build -o "$build/perfbench-bin" .)
exec "$build/perfbench-bin" "$@"
