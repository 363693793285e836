#!/usr/bin/env bash
# Builds usched and the benchmark from the sources of the checkout this
# script sits in, then runs the benchmark with every argument passed on:
#
#   bash e2ebench/run.sh --workload batch-narrow --seed 1 --seconds 15 --trace 0
#
# See e2ebench/README.md for the workloads, metrics and options.
set -euo pipefail
cd "$(dirname "$0")/.."
# Keep every build output inside the checkout (no shared dune cache).
export DUNE_CACHE=disabled
dune build --root . --display quiet ./bin/main.exe ./e2ebench/run.exe 1>&2
exec ./_build/default/e2ebench/run.exe --usched ./_build/default/bin/main.exe "$@"
