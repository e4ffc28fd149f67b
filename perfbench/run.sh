#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs it. Run it
# from the repository root, for example:
#
#   bash perfbench/run.sh --workload serve-mix --seed 1 --seconds 10 --trace 0
#
# The build cache, the binary and the span dumps of traced runs all stay
# under .bench_build/ in the checkout.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local
go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" --out "$out" "$@"
