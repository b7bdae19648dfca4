#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Called from the root of a
# checkout (BENCHMARK.json's command is `bash bench/run.sh`), with the
# benchmark's own flags passed through:
#
#   bash bench/run.sh --workload syn-hot --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays inside the checkout: the
# binary, go's build cache and the engine's spill directories (which
# follow TMPDIR) live under .bench_build/, the traces under bench/out/.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local TMPDIR="$build/tmp"
(cd "$root/bench" && go build -o "$build/clonos-bench" .)
exec "$build/clonos-bench" "$@"
