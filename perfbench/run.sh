#!/usr/bin/env bash
# Builds `tessel` and the load generator from the checkout this script sits
# in, then runs one benchmark workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload warm --seed 1 --seconds 10 --trace 0
#
# Every build output, cache and scratch file goes under .bench_build/ in the
# current directory, so the benchmark reads and writes nothing outside it.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/tessel || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/tessel and perfbench/ are needed)" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/gocache"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOTOOLCHAIN=local
export GOPATH="$out/gopath"

go build -o "$out/tessel" ./cmd/tessel >&2
(cd perfbench && go build -o "$out/perfbench" .) >&2

exec "$out/perfbench" -server "$out/tessel" -work "$out" "$@"
