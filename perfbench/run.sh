#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the root of the
# repository; every file it writes (Go build cache, binary, fleet data)
# stays under .bench_build/ there.
#
#   bash perfbench/run.sh --workload ingest|read|churn --seed N --seconds S --trace 0|1
#   bash perfbench/run.sh --workload read --seed 1 --seconds 10 --repeat 10
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/home" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export TMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
if ! command -v go >/dev/null && [ -x /usr/local/go/bin/go ]; then
	PATH="$PATH:/usr/local/go/bin"
fi

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --workdir "$build/run" "$@"
