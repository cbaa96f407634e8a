#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# The go tool's caches, its temporary files and the binary all stay under
# .bench_build/ at the root of the checkout, so a run writes nothing
# outside the checkout (but for /dev/shm, which the shm binding is made of).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$here/../.bench_build"
mkdir -p "$build/gocache" "$build/gomod" "$build/gotmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/gotmp" GOFLAGS=-buildvcs=false
rev="$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)"
(cd "$here" && go build -ldflags "-X main.gitRev=$rev" -o "$build/harness2-benchmark" .)
exec "$build/harness2-benchmark" "$@"
