#!/bin/bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything the build and the run write stays inside the checkout:
# .bench_build/ (binary, Go build cache) and .bench_data/ (data directories).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
(
	cd "$here"
	export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
	export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
	go build -o "$build/precis-benchmark" .
)
cd "$root"
exec "$build/precis-benchmark" "$@"
