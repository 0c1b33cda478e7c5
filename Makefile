# Convenience targets for the reproduction.

PYTHON ?= python

.PHONY: install test bench bench-medium bench-paper bench-smoke perf-smoke perf-pairs smoke report examples ci clean

install:
	$(PYTHON) -m pip install -e . --no-build-isolation

test:
	$(PYTHON) -m pytest tests/

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-medium:
	REPRO_SCALE=medium $(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-paper:
	REPRO_SCALE=paper $(PYTHON) -m pytest benchmarks/ --benchmark-only

report:
	$(PYTHON) -m repro report

# One core + one ext bench, the two generality ports (so a drift in
# their rows shows in BENCH_ext.json on every CI run) plus the
# hot-path scale bench at quick scale, then validate the JSON records
# against benchmarks/schema.json and refresh the repo-root
# BENCH_core.json / BENCH_ext.json perf-trajectory files.
bench-smoke:
	REPRO_SCALE=quick $(PYTHON) -m pytest \
		benchmarks/bench_fig05_hybrid_small.py \
		benchmarks/bench_ext_fault_injection.py \
		benchmarks/bench_ext_chord_generality.py \
		benchmarks/bench_ext_pastry_generality.py \
		benchmarks/bench_perf_scale.py \
		benchmarks/bench_perf_runtime.py \
		benchmarks/bench_perf_overload.py -q --benchmark-disable
	$(PYTHON) scripts/bench_report.py

# The declared benchmark's own consistency check (BENCHMARK.json,
# benchmarks/perf/): every workload once at toy size, ~15 s.  Fails
# when a name the span tracer wraps has moved, when mean_stretch is
# not reproducible between two independent boots, or when any
# operation failed.
perf-smoke:
	$(PYTHON) benchmarks/perf/run.py --smoke

# The pairs rule for claiming a gain on the declared benchmark: N
# alternating runs of BASE (exported to a temp dir) and this tree on
# one workload, then wins/ties, both medians and quartiles, and the
# nine-tenths + parent-IQR verdict.  ~20 s per run, so ~7 min at 10.
#   make perf-pairs BASE=HEAD~1 WORKLOAD=live_map_mixed METRIC=cpu_us_per_op
BASE ?= HEAD~1
WORKLOAD ?= live_lookup_closed
METRIC ?= cpu_us_per_op
PAIRS ?= 10
perf-pairs:
	$(PYTHON) scripts/perf_pairs.py --base $(BASE) --workload $(WORKLOAD) \
		--metric $(METRIC) --pairs $(PAIRS)

# The acceptance scenarios, one process, ~15 s (scripts/smoke.py): chaos
# recovery on three seeds, live-runtime sim parity under both payload
# encodings, the same bar across 4 worker processes, the churn soak in
# both execution modes, 2x overload with the detector live, and the
# management plane through a crash.  Each scenario's bar is a tuple of
# (label, predicate) gates next to it; every scenario runs even if an
# earlier one failed.  Leaves benchmarks/out/smoke/<scenario>.json
# (ignored).  One scenario: make smoke SCENARIO=shard
SCENARIO ?=
smoke:
	$(PYTHON) scripts/smoke.py $(SCENARIO)

# What the GitHub workflow runs: the full test suite, the quick-scale
# failure-resilience bench (timing disabled -- its assertions on success
# rate / false purges are the point), the acceptance scenarios, the
# bench-smoke JSON trajectory check and the declared benchmark's
# self-check.
ci:
	$(PYTHON) -m pytest tests/ -q
	$(PYTHON) -m pytest benchmarks/bench_ext_failure_resilience.py -q --benchmark-disable
	$(MAKE) smoke
	$(MAKE) bench-smoke
	$(PYTHON) scripts/bench_report.py --check
	$(MAKE) perf-smoke

examples:
	for ex in examples/*.py; do echo "== $$ex =="; $(PYTHON) $$ex; echo; done

# Only what git does not track: benchmarks/out holds committed bench
# records next to ignored smoke output, and src/repro.egg-info is
# committed.
clean:
	git clean -fdxq benchmarks/out
	rm -rf .pytest_cache build *.egg-info
