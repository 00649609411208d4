# Convenience targets; everything is plain dune underneath.

.PHONY: all build test bench bench-json bench-diff smoke clean

all: build

build:
	dune build

test:
	dune runtest

bench:
	dune exec bench/main.exe

bench-json:
	dune exec bench/main.exe -- --micro-only --json

# Compare the latest two BENCH_<date>.json snapshots; fails on a >20%
# regression. A no-op (exit 0) with fewer than two snapshots.
bench-diff:
	dune exec bench/diff.exe

# Fast end-to-end confidence: full build, the whole test suite (including
# the golden outputs of test/golden and the trace, audit, model and health
# gates that ride on them), one reduced experiment driven through the real
# CLI, and the bench snapshot diff.
smoke:
	dune build
	dune runtest
	dune exec bin/psbox_sim.exe -- run fig3
	dune exec bench/diff.exe

clean:
	dune clean
