# The single committed verify recipe: builds every executable (CLI,
# server, bench, examples) and runs the full test suite, then a
# smallest-scale pass over every bench family (the harness itself is
# code that can rot) and the wire-level benchmark smoke, which checks
# every answer against its pin.  Run before every merge.
.PHONY: verify build test fuzz bench-smoke wirebench-smoke bench-chaos bench-obs bench-approx bench-recover

verify:
	dune build @all && dune runtest && $(MAKE) bench-smoke && $(MAKE) wirebench-smoke

build:
	dune build @all

test:
	dune runtest

# High-iteration frontend fuzz: random well-typed queries are printed to
# SQL and to s-expressions, re-parsed, and checked fingerprint-identical.
# The default runtest pass already runs 1000 iterations of each property;
# this gated target cranks it up (override with FUZZ=N).
FUZZ ?= 20000
fuzz:
	FRONTEND_FUZZ_COUNT=$(FUZZ) dune exec test/test_frontend.exe -- test fuzz

# Every bench family at the smallest scale — a CI guard, not a measurement.
bench-smoke:
	dune exec bench/main.exe -- smoke

# Wire-level benchmark at its smoke scales (about 11 s): drives the real
# server over a socket and fails if any answer differs from the pinned
# explanations in wirebench/expected/ or a declared metric goes unmeasured.
wirebench-smoke:
	sh wirebench/run.sh smoke

# Budget-ladder acceptance run (exact vs sampled vs top-k vs combined
# at scales 32-256); writes the committed baseline for the approx PR.
bench-approx:
	dune exec bench/main.exe -- approx -json BENCH_PR9.json

# Stage-recovery acceptance run: checkpoint restore vs full lineage
# recompute, plus pipeline cost under a spill watermark; writes the
# committed baseline for the recovery PR.  (The bench-smoke rung above
# already runs this family at the smallest scale, which doubles as the
# spill smoke: explanations under a starvation watermark must match.)
bench-recover:
	dune exec bench/main.exe -- recover -json BENCH_PR10.json

# Gated chaos measurement (arms process-global fault sites, so it never
# runs as part of the default bench sweep).
bench-chaos:
	dune exec bench/main.exe -- chaos -json BENCH_PR5.json

# Gated telemetry-overhead measurement (flips the process-global log
# level and sink set, so it never runs as part of the default sweep).
bench-obs:
	dune exec bench/main.exe -- obs -json BENCH_PR6.json
