#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout it is run in, then runs
# it with every argument passed through. Run it from the repository root:
#
#   bash perfbench/run.sh --workload browsing --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache, temporary WAL directories and trace files
# all stay under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/home"
# Build offline with the installed toolchain, and keep every cache and
# configuration file Go writes inside the checkout.
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home" TMPDIR="$out/home"
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -workdir "$out" "$@"
