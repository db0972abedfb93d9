#!/usr/bin/env bash
# Builds ldpserver and the benchmark binary from the source tree in the
# current directory, then runs one benchmark run. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload ingest-bulk --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache, WALs and span dumps all stay under
# .bench_build/ in the current directory.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/ldpserver || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root: go.mod, cmd/ldpserver and perfbench/ must be present" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/xdg" "$out/run"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/xdg"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go build -o "$out/bin/ldpserver" ./cmd/ldpserver
(cd perfbench && go build -o "$out/bin/perfbench" .)

exec "$out/bin/perfbench" -server "$out/bin/ldpserver" -workdir "$out/run" "$@"
