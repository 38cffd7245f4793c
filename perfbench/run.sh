#!/usr/bin/env bash
# Builds the served-store benchmark from this checkout's source and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload mycsb_b --seed 1 --seconds 20 --trace 0
#
# Every build and run artifact (Go build cache, binary, store directories,
# span dumps) stays under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export GOENV=off

go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" -out "$out" "$@"
