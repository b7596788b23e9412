#!/usr/bin/env bash
# Builds the energydb benchmark from the checkout it is run in and runs it
# with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload tpch-streams --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every build artifact, cache and temporary
# file stays under .bench_build/ there.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/mod" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
