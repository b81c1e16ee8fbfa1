#!/usr/bin/env bash
# Builds deshbench from source into .bench_build/ at the root of the
# checkout and runs it there with the arguments given. Everything the
# build and the run write (Go build cache, binary, state dirs, traces)
# stays under .bench_build/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/tmp"
# The go command's own files (build cache, module cache, work
# directories, telemetry counters under the user config dir) are
# pointed inside the checkout.
(
	cd "$here"
	export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
	export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
	go build -o "$out/deshbench" .
)
cd "$root"
exec "$out/deshbench" "$@"
