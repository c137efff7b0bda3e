#!/usr/bin/env bash
# Builds the serving benchmark from source and runs it with the given
# arguments, e.g.
#
#   bash servebench/run.sh --workload pop3-churn --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Build outputs (binary and Go build
# cache) go to $CARGO_TARGET_DIR, or .bench_build when that is unset, so
# the first run compiles everything and later runs relink only.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$(pwd)/$build" ;;
esac
mkdir -p "$build/gocache" "$build/tmp"

export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
export GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export GOENV=off GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local

(cd "$here" && go build -o "$build/servebench" .)
exec "$build/servebench" "$@"
