# The single committed verify recipe: builds every executable (CLI,
# server, bench, examples) and runs the full test suite, then a
# smallest-scale pass over every bench family (the harness itself is
# code that can rot) and the wire-level benchmark smoke, which checks
# every answer against its pin.  Run before every merge.
.PHONY: verify build test fuzz lib-lines one-shape bench-smoke wirebench-smoke wirebench-pairs bench-chaos bench-obs bench-approx

verify:
	dune build @all && dune runtest && $(MAKE) one-shape && $(MAKE) bench-smoke && $(MAKE) wirebench-smoke

build:
	dune build @all

test:
	dune runtest

# Lines of library code, the size ROADMAP.md and CHANGES.md report.
lib-lines:
	@cat lib/*/*.ml lib/*/*.mli | wc -l

# One shape per column, one row comparator and one equality kernel:
# fails if a boxed column (CBox, CConst), the mixed shape, a per-row
# kernel fallback, the second comparator (cmp_cells) or a second
# equality path beside eqclasses' exact codes (the cell-by-cell
# eqclasses_general, a Coder module, row_codes) comes back to the code.
one-shape:
	@! grep -rn 'CBox\|CConst\|SMixed\|\bFallback\b\|note_row_fallback\|row_fallbacks\|cmp_cells\|eqclasses_general\|Coder\|row_codes' \
	  lib bin bench examples test

# High-iteration frontend fuzz: random well-typed queries are printed to
# SQL and to s-expressions, re-parsed, and checked fingerprint-identical.
# The default runtest pass already runs 1000 iterations of each property;
# this gated target cranks it up (override with FUZZ=N).
FUZZ ?= 20000
fuzz:
	FRONTEND_FUZZ_COUNT=$(FUZZ) dune exec test/test_frontend.exe -- test fuzz

# Every bench family at the smallest scale — a CI guard, not a
# measurement.  Exits 1 if any of the bench's correctness checks fails
# (table3 operator types, approx top-k prefix, chaos identical
# explanations).
bench-smoke:
	dune exec bench/main.exe -- smoke

# Wire-level benchmark at its smoke scales (about 11 s): drives the real
# server over a socket and fails if any answer differs from the pinned
# explanations in wirebench/expected/ or a declared metric goes unmeasured.
wirebench-smoke:
	sh wirebench/run.sh smoke

# Interleaved parent/change wirebench pairs and their comparison, e.g.
#   make wirebench-pairs PARENT=../parent CHANGE=. WORKLOAD=tpch-cold N=10 \
#     CLAIM=tpch-cold:throughput_rps
# Results go to .wirebench/pairs/<workload>/ (see scripts/wirebench_pairs.sh).
N ?= 10
CHANGE ?= .
wirebench-pairs:
	sh scripts/wirebench_pairs.sh $(PARENT) $(CHANGE) $(WORKLOAD) $(N) $(CLAIM)

# The acceptance families below run only when named.  Each writes its
# rows to results/bench-<family>.json (results/ is not committed); the
# committed BENCH_PR*.json files are history and are never rewritten.

# Budget ladder: exact vs sampled vs top-k vs combined at scales 32-256.
bench-approx:
	mkdir -p results && dune exec bench/main.exe -- approx -json results/bench-approx.json

# Chaos: unarmed fault-site overhead and armed-retry recovery (arms
# process-global fault sites, so it never runs in the default sweep).
bench-chaos:
	mkdir -p results && dune exec bench/main.exe -- chaos -json results/bench-chaos.json

# Telemetry overhead (flips the process-global log level and sink set,
# so it never runs in the default sweep).
bench-obs:
	mkdir -p results && dune exec bench/main.exe -- obs -json results/bench-obs.json
