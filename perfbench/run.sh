#!/usr/bin/env bash
# Builds perfbench and the telsd daemon from the checkout, then runs
# perfbench with the given arguments. Run it from the repository
# root:
#
#   bash perfbench/run.sh --workload corpus --seed 1 --seconds 30 --trace 0
#
# The Go build cache, temporary files and binaries stay under .bench_build/
# in the repository root; the build never touches the network.
set -euo pipefail
out="$PWD/.bench_build"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off
mkdir -p "$GOTMPDIR"
go build -C perfbench -o "$out/bin/" . tels/cmd/telsd
exec "$out/bin/perfbench" -telsd "$out/bin/telsd" "$@"
