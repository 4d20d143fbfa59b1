#!/usr/bin/env bash
# Builds the scadabench binary from the checkout's sources and runs it.
# Run from the repository root:
#
#   bash scadabench/run.sh --workload cold-verify --seed 1 --seconds 10 --trace 0
#
# Build outputs (binary, Go build cache, span dumps) stay in .bench_build
# under the repository root.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/core" || ! -f "$root/scadabench/go.mod" ]]; then
	echo "scadabench: run from the root of a scadaver checkout (scadaver sources not found)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
# The go command keeps its settings and telemetry under the user config
# directory; point it into the checkout too.
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local

(cd "$root/scadabench" && go build -o "$out/scadabench" .)
exec "$out/scadabench" "$@"
