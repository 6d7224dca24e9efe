#!/usr/bin/env bash
# Builds the checkpoint benchmark from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash ckptbench/run.sh --workload step-save --seed 1 --seconds 36 --trace 0
#
# Everything the build writes (binary, Go build cache, Go's own config and
# telemetry files) stays under .bench_build in the working directory.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false GOWORK=off
go -C ckptbench build -o "$out/ckptbench" . >&2
exec "$out/ckptbench" "$@"
