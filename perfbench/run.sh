#!/usr/bin/env bash
# Builds the wall-clock benchmark from the source tree it sits in and runs
# it. Run from the repository root:
#
#   bash perfbench/run.sh --workload batch_fine --seed 1 --seconds 30 --trace 0
#
# Every build artefact (Go build cache, temporary files, binary, scratch
# stores, span files) stays under .bench_build in the current directory.
set -euo pipefail
root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export TMPDIR="$build/tmp" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" --workdir "$build/perfbench-work" "$@"
