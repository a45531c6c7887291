#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags. The
# checkout root is the working directory; everything the build and the run
# write (Go caches, binary, WAL scratch) stays under .bench_build there.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp"
export GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTOOLCHAIN=local GOENV=off GOWORK=off GOFLAGS=
bin="$build/dmv-benchmark"
(cd "$here" && go build -o "$bin" .)
exec "$bin" -scratch "$build/run" "$@"
