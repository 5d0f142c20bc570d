PYTHON ?= python
PYTHONPATH := src

.PHONY: test perfbench-test bench perf-smoke smoke-trace serve-smoke report lint check certify ranges chaos-smoke chaos-multi perfgate perfgate-rebaseline ci clean

test:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest tests/ -q

# The repo benchmark's own tests: each perfbench/layers.py target must
# still resolve, so renaming or moving a timed function fails here rather
# than in the next benchmark run.
perfbench-test:
	$(PYTHON) -m pytest perfbench -q

# Static analysis gate.  Uses ruff + mypy when the [lint] extra is
# installed; otherwise falls back to the committed stdlib checker so the
# gate always runs (the container image has no network access).
lint:
	@if $(PYTHON) -c "import ruff" 2>/dev/null; then \
		$(PYTHON) -m ruff check src/repro tools tests benchmarks && \
		$(PYTHON) -m ruff format --check src/repro tools tests benchmarks; \
	else \
		echo "lint: ruff not installed -> stdlib fallback (tools/lint_fallback.py)"; \
		$(PYTHON) tools/lint_fallback.py src/repro tools tests benchmarks; \
	fi
	@if $(PYTHON) -c "import mypy" 2>/dev/null; then \
		$(PYTHON) -m mypy; \
	else \
		echo "lint: mypy not installed -> skipped (pip install -e .[lint])"; \
	fi

# Program/representation preflight: lint the bundled vertex programs, check
# every representation invariant on a reference R-MAT, run the simulated-race
# detector, and prove each analysis rule fires on the broken fixtures.
check:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro check --level full
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro check --selftest

# Kernel certification gate: prove the C401-C406 algebraic certificates for
# every bundled program and the batched multi-source traversals, and assert
# each certifier rule fires (REFUTED) on exactly its broken fixture.
# See the "Kernel certification" section of docs/analysis.md.
certify:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro check --certify --selftest

# Range certification gate: discharge the W501-W504 abstract-interpretation
# certificates (overflow, non-finite, termination, invariant ranges) for
# every bundled program and the batched multi-source traversals, print the
# proven-safe narrowing plans, and assert each range rule fires (REFUTED)
# on exactly its broken fixture.  See "Abstract domains" in docs/analysis.md.
ranges:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro check --ranges --selftest

# Chaos smoke: the seeded deterministic fault campaign — every fault class
# against every chaos engine, each run asserting recovery (or graceful
# degradation) to bit-identical golden values.  See docs/resilience.md.
chaos-smoke:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro chaos --seed 0 --campaign smoke

# Multi-device chaos: kill a device at every iteration boundary of every
# sharded engine and assert the repartition-resume path stitches a
# bit-identical result on the surviving devices.  See docs/placement.md.
chaos-multi:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro chaos --seed 0 --campaign multi

# Service smoke: exercise the repro.service job scheduler end to end —
# submit/poll/cancel lifecycle, same-graph batching (bit-exact vs solo
# runs), tenant quotas, and load-shedding.  See docs/service.md.
serve-smoke:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro serve --smoke

# Performance gate: cost-contract + static audit + model-vs-measured drift
# check, then re-run the perf smoke, service batching, frontier,
# dtype-narrowing, and multi-device placement benchmarks and diff each
# against its committed baseline
# (benchmarks/baselines/{perf_smoke,service,frontier,ranges,placement}.json).
# Writes the machine-readable report to benchmarks/results/PERFGATE_report.json.
perfgate:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro perfgate --repeats 1

# Refresh the committed baselines after an intentional performance change
# (review the diffs of benchmarks/baselines/*.json like any code).
perfgate-rebaseline:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro perfgate --repeats 3 --rebaseline

# Full local CI chain, in the order a reviewer would want failures surfaced.
ci: lint test perfbench-test smoke-trace check certify ranges serve-smoke chaos-smoke chaos-multi perfgate

bench:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest benchmarks/ --benchmark-only

# Performance smoke: micro-benchmark the simulator's hot kernels, then run
# the end-to-end fast-vs-reference / cold-vs-warm-cache comparison, which
# archives benchmarks/results/BENCH_perf_smoke.json (median wall time per
# engine on a fixed R-MAT graph).
perf-smoke:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest \
		benchmarks/bench_micro_kernels.py --benchmark-only
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) benchmarks/bench_perf_smoke.py

# CI smoke: trace a tiny R-MAT run end-to-end and validate the emitted
# JSONL against the repro-trace schema (exits non-zero on any violation).
smoke-trace:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro trace \
		--graph 1024x8192 --program sssp --engine cusha-cw \
		--out /tmp/repro-smoke-trace.jsonl --format both --check

report:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro experiments all

clean:
	rm -rf .pytest_cache .ruff_cache .mypy_cache .hypothesis build dist src/*.egg-info
	rm -f benchmarks/results/PERFGATE_report.json tests/data/*.actual
	find . -name __pycache__ -type d -exec rm -rf {} +
