#!/usr/bin/env bash
# Builds bgpbench from source inside the checkout and runs it with the
# given arguments. Everything the build writes stays under .bench_build/
# and everything the benchmark writes under bench/out/, so a run reads
# and writes only inside its checkout.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOPATH="$build/go-path" GOTMPDIR="$build/tmp"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go build -C bench -o "$build/bgpbench" .
exec "$build/bgpbench" "$@"
