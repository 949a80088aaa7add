#!/usr/bin/env bash
# The benchmark's command: build the harness from source into .bench_build
# at the repository root (the only place outside benchmark/out this writes),
# then run it from the root with the arguments given.
#
#   bash benchmark/run.sh --workload serve_warm --seed 1 --seconds 10 --trace 0
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
# Everything the toolchain writes stays inside the checkout, and nothing is
# fetched: the harness needs only this repository and the standard library.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gomodcache"
export XDG_CONFIG_HOME="$build/config" # the go command's own settings and counters
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$build/knowtrans-bench" .) >&2
cd "$root"
exec "$build/knowtrans-bench" "$@"
