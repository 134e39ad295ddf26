#!/usr/bin/env bash
# Builds the benchmark and runs it. The benchmark may read and write only
# inside its checkout, so everything the toolchain would put elsewhere (build
# cache, temporaries, module cache) goes under <checkout>/.bench_build, and
# the build may not look outside either (no user environment file, no
# workspace file above the checkout, no toolchain or module download). The
# toolchain's telemetry counters live in the user's configuration directory,
# so that moves too.
# All arguments go to the benchmark: see bench/README.md.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOENV=off GOWORK=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/mirror-bench" .)
exec "$build/mirror-bench" -root "$root" "$@"
