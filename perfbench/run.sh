#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ and runs it with
# the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload paper-all --seed 1 --seconds 12 --trace 0
#
# The Go build cache, temporary files and the binary stay under
# .bench_build/, so a run writes nothing outside the checkout. Without
# the repository around it (perfbench/go.mod replaces module easig with
# ../) the build fails and the script exits non-zero.
set -euo pipefail
build="$(pwd)/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off GOFLAGS=
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
