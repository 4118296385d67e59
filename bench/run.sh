#!/usr/bin/env bash
# Builds peiperf from the checkout this script sits in and runs it with
# the given flags, e.g.
#
#   bash bench/run.sh --workload memory-bound --seed 3 --seconds 20 --trace 0
#
# The Go build cache, temporary files and the binary all live under
# bench/.bench_build, so a run writes nothing outside the bench directory.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/bench/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
# The go command keeps telemetry counters under the user config directory.
export XDG_CONFIG_HOME="$out/config"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false

(cd "$root/bench" && go build -o "$out/peiperf" ./peiperf)
cd "$root"
exec "$out/peiperf" "$@"
