#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument is passed
# through.  Run it from the repository root:
#
#   bash perfbench/run.sh --workload grid-wire --seed 1 --seconds 10 --trace 0
#
# All build state (Go build cache, configuration, temporary files, the
# binary) and the benchmark's journals live under .bench_build/ in the
# current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOWORK=off GOTOOLCHAIN=local GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
