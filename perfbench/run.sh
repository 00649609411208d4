#!/bin/sh
# Build the benchmark if needed and run it, from the repository root:
#   sh perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# --root . keeps dune from adopting a dune-project above this directory,
# and the shared dune cache is off, so the build writes only to _build.
exec dune exec --root . --cache=disabled --display quiet perfbench/run.exe -- "$@"
