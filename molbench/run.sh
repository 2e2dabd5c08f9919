#!/usr/bin/env bash
# Builds Molecule's end-to-end benchmark from the checkout in the current
# directory and runs it with the given arguments, for example
#
#   bash molbench/run.sh --serve-rate 4500 --workload serve --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The Go build cache, the binary and the
# run records all stay under .bench_build/ there.
set -euo pipefail
if [ ! -f go.mod ] || [ ! -d molbench ]; then
	echo "molbench: run from the repository root (no go.mod or molbench/ here)" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS=-mod=vendor GOTOOLCHAIN=local
go build -o "$out/molbench" ./molbench
exec "$out/molbench" -out "$out/runs" "$@"
