#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ under the current
# directory (the root of a checkout) and runs it with the given
# arguments. Every file the Go toolchain writes — build cache, module
# cache, temporary work directories — is kept inside .bench_build/ too,
# so nothing outside the checkout is touched.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOWORK=off
(cd "$root/benchmark" && go build -buildvcs=false -o "$build/rpqbench" .)
exec "$build/rpqbench" "$@"
