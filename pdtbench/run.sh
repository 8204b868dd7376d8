#!/usr/bin/env bash
# Builds pdt-tad, pdt-run, pdt-ta and the benchmark from source, then runs
# the benchmark. Run it from the repository root:
#
#   bash pdtbench/run.sh --workload tad-cold --seed 1 --seconds 10 --trace 0
#
# Everything it builds or writes stays under $CARGO_TARGET_DIR (default
# .bench_build) in the repository root, Go's build cache included.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/pdt-tad || ! -f pdtbench/go.mod ]]; then
	echo "pdtbench: run from the repository root (go.mod, cmd/pdt-tad and pdtbench/ not found here)" >&2
	exit 2
fi

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=-mod=readonly
mkdir -p "$GOTMPDIR" "$out/bin" "$out/work"

go build -o "$out/bin/" ./cmd/pdt-tad ./cmd/pdt-run ./cmd/pdt-ta
(cd pdtbench && go build -o "$out/bin/pdtbench" .)

exec "$out/bin/pdtbench" -bin "$out/bin" -work "$out/work" "$@"
