#!/usr/bin/env bash
# Builds the benchmark from source into the checkout's .bench_build/ and
# runs it from the checkout root. The Go build cache, module path and
# toolchain counters live there too, so nothing is written outside the
# checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
(cd "$root/bench" && go build -o "$build/factorbench" .)
cd "$root"
exec "$build/factorbench" "$@"
