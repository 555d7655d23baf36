#!/usr/bin/env bash
# Builds the server, the snapshot translator and the load generator from the
# checkout this is run in, then runs the generator with the given arguments:
#
#   bash perfbench/run.sh --workload warm-paging --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/ in that directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"

# Keep the toolchain's caches and settings inside the checkout and off
# the network: the module has no external requirements.
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS= CGO_ENABLED=0

go build -o "$build/bin/" ./cmd/etable-server ./cmd/etable-translate >&2
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .) >&2
exec "$build/bin/perfbench" -root "$root" "$@"
