#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash edfbench/run.sh --workload analyze-cold --seed 1 --seconds 10 --trace 0
#   bash edfbench/run.sh --smoke
#
# Everything the build and the run write — the binary, the Go build
# cache, span dumps, session stores — stays under .bench_build (or
# $CARGO_TARGET_DIR when set) in the checkout.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C edfbench build -o "$build/edfbench" .
exec "$build/edfbench" --out "$build/edfbench-out" "$@"
