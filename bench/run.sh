#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it from the repository
# root (serve locates the essent module from the working directory). Caches
# and temporary files stay under .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" XDG_CONFIG_HOME="$build/config" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOFLAGS=
(cd "$root/bench" && go build -o "$build/essent-bench" .)
cd "$root"
exec "$build/essent-bench" "$@"
