#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it.
# Run it from the repository root:
#
#   bash perfbench/run.sh --workload lib-read128 --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go caches, the binary, backing
# files, span dumps) stays under .bench_build in the current directory.
# Without the repository's sources next to perfbench/ the build fails and
# the script exits non-zero before printing a result.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
mkdir -p .bench_build/tmp
out=$(cd .bench_build && pwd)

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=

(cd "$here" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" "$@"
