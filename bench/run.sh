#!/usr/bin/env bash
# Builds the end-to-end benchmark and runs it. Every argument goes to the
# benchmark program (bench/e2e); see bench/README.md.
#
#   bench/run.sh                                  all four workloads, a table each
#   bench/run.sh --workload oltp_point --seed 2   one workload, one seed
#   bench/run.sh --trace 1                        the traced run: per-layer metrics
#   bench/run.sh -json                            one JSON object per workload
#   bench/run.sh -aa 5 > bench/AA.md              A/A check of this one build
#
# The benchmark driver calls it as
#   bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# and reads the last line of standard output.
#
# Everything the build and the runs write stays in bench/out/: the Go build
# cache and the binary in bench/out/build/, WAL directories and span dumps
# beside it.
set -euo pipefail
cd "$(dirname "$0")/.."

build="$PWD/bench/out/build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off

# The program is a module of its own (bench/go.mod) that reaches the
# engine through a replace directive onto the repository root, so the
# build fails, and this script with it, anywhere the engine's source is
# not beside it.
go build -C bench -o "$build/e2e" ./e2e

for arg in "$@"; do
	if [ "$arg" = "-aa" ] || [ "$arg" = "--aa" ]; then
		echo "# A/A check of the end-to-end benchmark"
		echo
		echo "commit $(git rev-parse HEAD 2>/dev/null || echo unknown)$(git diff --quiet HEAD 2>/dev/null || echo " + uncommitted changes"), $(go version), $(nproc) CPUs, $(date -u +%Y-%m-%d)"
		echo
	fi
done

exec "$build/e2e" "$@"
