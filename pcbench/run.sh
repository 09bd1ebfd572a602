#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with
# the given arguments, e.g.
#
#   bash pcbench/run.sh --workload measure-hot --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Build outputs and the Go build cache
# go under $CARGO_TARGET_DIR (default .bench_build) in the current
# directory, so nothing is written outside it.
set -euo pipefail

root=$PWD
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"

export GOCACHE=$out/gocache GOPATH=$out/gopath GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly

# The commit is recorded only when the current directory is itself the
# top of a git checkout.
commit=unavailable
if top=$(GIT_CEILING_DIRECTORIES=$(dirname "$root") git -C "$root" rev-parse --show-toplevel 2>/dev/null) &&
	[ "$top" = "$root" ]; then
	commit=$(git -C "$root" rev-parse HEAD)
fi
export PCBENCH_COMMIT=$commit

go -C "$root/pcbench" build -buildvcs=false -o "$out/pcbench" .
exec "$out/pcbench" "$@"
