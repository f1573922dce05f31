#!/usr/bin/env bash
# Builds perfbench from source and runs it with the given arguments. The
# binary, the Go build cache and everything else the toolchain writes stay
# in .bench_build/ under the checkout; run data goes to perfbench/out/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOPATH="$build/go-path"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
cd "$root"
go build -C perfbench -o "$build/perfbench" .
exec "$build/perfbench" "$@"
