#!/usr/bin/env bash
# Builds relperfd and the benchmark program from the sources of the checkout
# it is run in, then runs one benchmark invocation. Run it from the root of
# the repository:
#
#   bash perfbench/run.sh --workload study-exact --seed 1 --seconds 20 --trace 0
#
# Every build product, cache and run file stays under .bench_build/ in the
# checkout. Compiling is not part of any reported set-up time.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/bin" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/modcache" \
	GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

# With telemetry on, a go command may fork a detached child that outlives it.
# "go telemetry off" starts none and records the mode under $XDG_CONFIG_HOME,
# so no later go command here starts one either. Go before 1.23 has neither
# the child nor the subcommand.
go telemetry off 2>/dev/null || true
go build -o "$build/bin/relperfd" ./cmd/relperfd
(cd perfbench && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" -relperfd "$build/bin/relperfd" -workdir "$build/run" "$@"
