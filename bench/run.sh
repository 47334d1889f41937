#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the caller's arguments.
# Everything the build writes (binary, Go build cache) stays in .bench_build/
# at the root of the checkout, so a run touches nothing outside it.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off GOWORK=off
if [ -z "${BENCH_GIT_COMMIT:-}" ]; then
	BENCH_GIT_COMMIT="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
fi
export BENCH_GIT_COMMIT
(cd "$here" && go build -o "$build/p4bench" .)
exec "$build/p4bench" "$@"
