#!/usr/bin/env bash
# Builds informbench from this checkout and runs it with the given
# arguments, e.g.
#
#   bash bench/run.sh --workload grid --seed 1 --seconds 12 --trace 0
#
# Run from the repository root. Everything it writes (Go build cache,
# binary, scratch files) stays under .bench_build, or under
# $CARGO_TARGET_DIR when that is set.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out"

# The go command's cache, temporary files, module path and configuration
# (telemetry included) all stay in $out; the build needs no network.
export GOCACHE=$out/go-cache GOTMPDIR=$out GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false GOWORK=off
(cd "$root/bench" && go build -o "$out/informbench" ./informbench)
exec "$out/informbench" -workdir "$out/work" "$@"
