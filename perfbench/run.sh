#!/bin/sh
# Build the benchmark harness from source, then run it with the given
# arguments, e.g.
#   sh perfbench/run.sh --workload paper-mesh --seed 1 --seconds 30 --trace 0
# Build output goes to stderr so the harness's last stdout line stays its
# JSON result. The dune cache is disabled so nothing is written outside the
# checkout.
set -eu
cd "$(dirname "$0")/.."
dune build --root . --cache=disabled --display=quiet ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
