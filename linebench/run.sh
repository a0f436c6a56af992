#!/usr/bin/env bash
# Builds and runs the backend line-path benchmark. Run from the
# repository root:
#
#   bash linebench/run.sh --workload dashboard --seed 1 --seconds 10 --trace 0
#
# Every build product, cache and log stays under .bench_build/ in the
# current directory.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go -C linebench build -buildvcs=false -o "$out/linebench" .
exec "$out/linebench" "$@"
