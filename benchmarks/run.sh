#!/usr/bin/env bash
# Builds mikload from the checkout it is run in and runs it with the given
# arguments. Everything the build writes stays under .bench_build/.
set -euo pipefail
if [ ! -f go.mod ] || [ ! -d internal/serve ]; then
	echo "benchmarks/run.sh: run from the root of a mikpoly checkout (go.mod and internal/ are missing here)" >&2
	exit 1
fi
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="${GOPATH:-$out/gopath}" GOTOOLCHAIN=local GOPROXY=off
go build -o "$out/mikload" ./benchmarks/mikload
exec "$out/mikload" -out "$out" "$@"
