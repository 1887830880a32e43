#!/usr/bin/env bash
# Builds the benchmark harness from source and runs it. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload cold-runs --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (Go build cache, binary, the
# daemon workload's result stores) stays under .bench_build/ in the
# current directory.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" HOME="$out/home" \
	XDG_CONFIG_HOME="$out/home/.config" GOTOOLCHAIN=local GOENV=off GOFLAGS=
go -C perfbench build -buildvcs=false -o "$out/perfbench" .
exec "$out/perfbench" "$@"
