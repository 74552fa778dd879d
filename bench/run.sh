#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root:
#
#   bash bench/run.sh -workload paper-lp -seed 1 -seconds 20 -trace 0
#
# The binary and the Go build cache go to .bench_build/ under the current
# directory, so nothing is written outside the checkout.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

# Build output goes to standard error: standard output carries results.
(cd "$here" && go build -o "$build/bench" .) >&2
exec "$build/bench" "$@"
