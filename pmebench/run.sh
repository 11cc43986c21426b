#!/usr/bin/env bash
# Builds the PME benchmark from the checkout's sources and runs it.
#
#   bash pmebench/run.sh --workload estimate-small --seed 1 --seconds 8 --trace 0
#   bash pmebench/run.sh steady --workload estimate-small --runs 5 --seconds 8
#
# Run it from the repository root. Everything the build writes (binary,
# Go build cache, temp files, span exports) stays under .bench_build/ in
# the current directory, or under $CARGO_TARGET_DIR when that is set.
# Without the repository's own sources next to pmebench/ the build fails
# and the script exits non-zero without printing a result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly

(cd "$here" && go build -o "$out/pmebench" .) >&2
exec "$out/pmebench" "$@" --spans-dir "$out"
