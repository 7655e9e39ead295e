#!/usr/bin/env bash
# Builds the benchmark, and with it the program under test, from the sources
# of the checkout this script sits in, then runs it with the arguments given.
# Everything the build leaves behind goes under .bench_build/ in that
# checkout: nothing is read or written outside it.
set -euo pipefail
bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$bench")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS= GOWORK=off GOTOOLCHAIN=local
(cd "$bench" && go build -o "$build/mccpbench" .)
exec "$build/mccpbench" "$@"
