#!/bin/sh
# Build perfbench from source and run one workload.
#
# Run from the repository root:
#   bash perfbench/run.sh --workload fresh-kernels --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (compiler cache, binary) stays under
# .bench_build/ in the current directory; the traced run's spans go to
# .bench_out/. The build fails, and nothing is printed on stdout, when
# the simulator's sources are not beside perfbench/.
set -eu
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=mod
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
