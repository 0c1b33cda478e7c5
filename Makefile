# Convenience targets for the reproduction.

PYTHON ?= python

.PHONY: install test bench bench-medium bench-paper bench-smoke perf-smoke perf-pairs smoke report examples ci clean

install:
	$(PYTHON) -m pip install -e . --no-build-isolation

test:
	$(PYTHON) -m pytest tests/

# Every row of the experiment catalogue (repro.experiments.registry) at
# one scale: run, write the record to that scale's directory
# (benchmarks/out/, benchmarks/results_medium/, benchmarks/results_paper/),
# assert the row's shape gates.
bench:
	REPRO_SCALE=quick $(PYTHON) -m pytest benchmarks/

bench-medium:
	REPRO_SCALE=medium $(PYTHON) -m pytest benchmarks/

bench-paper:
	REPRO_SCALE=paper $(PYTHON) -m pytest benchmarks/

report:
	$(PYTHON) -m repro report

# Every deterministic row at quick scale, ~45 s (the churn soak's live
# half is wall-raced: `make bench` runs it).  Each rewrites its committed
# record under benchmarks/out/, which holds only what a same-seed run
# reproduces byte for byte: on an unchanged tree this leaves `git status`
# clean, and `make ci` fails on any diff.  (Timings are the declared
# benchmark's: `make perf-pairs`.)
bench-smoke:
	REPRO_SCALE=quick $(PYTHON) -m pytest benchmarks/ -q -k "not ext_churn_soak"

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
# ALSO names more workloads (or "all") that get their own N pairs and
# the bound table of every end-to-end metric: the whole no-regression
# check in one command (~45 min at 10 pairs for all seven).  FIRST_SEED
# moves the seeds (FIRST_SEED..FIRST_SEED+PAIRS-1), so a claim can be
# re-checked on seeds not used while the change was written.
#   make perf-pairs BASE=HEAD~1 WORKLOAD=live_map_mixed METRIC=cpu_us_per_op
#   make perf-pairs BASE=HEAD~1 WORKLOAD=sim_route ALSO=all
BASE ?= HEAD~1
WORKLOAD ?= live_lookup_closed
METRIC ?= cpu_us_per_op
PAIRS ?= 10
FIRST_SEED ?= 1
ALSO ?=
perf-pairs:
	$(PYTHON) scripts/perf_pairs.py --base $(BASE) --workload $(WORKLOAD) \
		--metric $(METRIC) --pairs $(PAIRS) --first-seed $(FIRST_SEED) \
		$(foreach w,$(ALSO),--also $(w))

# The acceptance scenarios, one process, ~15 s (scripts/smoke.py): chaos
# recovery on three seeds, live-runtime sim parity under both payload
# encodings and over real TCP sockets (64 nodes behind one listener
# and one connection), a latency-shaped 16-node lookup burst on three
# seeds in which every lookup is answered within the one request
# deadline, the same bar across 4 worker processes, the churn soak in
# both execution modes, 2x and 4x overload with the detector live, and the
# management plane through a crash.  Each scenario's bar is a tuple of
# (label, predicate) gates next to it; every scenario runs even if an
# earlier one failed.  Leaves benchmarks/out/smoke/<scenario>.json
# (ignored).  One scenario: make smoke SCENARIO=shard
SCENARIO ?=
smoke:
	$(PYTHON) scripts/smoke.py $(SCENARIO)

# What the GitHub workflow runs: the full test suite (which also judges
# every committed record, quick and medium, by its row's gates), the
# acceptance scenarios, the 26 bench-smoke records regenerated, gated and
# compared byte for byte with the committed ones (mean_stretch, message
# columns and hop counts: a changed row fails at the `git diff` and the
# diff names the record), the shape of every committed record and the
# declared benchmark's self-check.
ci:
	$(PYTHON) -m pytest tests/ -q
	$(MAKE) smoke
	$(MAKE) bench-smoke
	git diff --exit-code -- benchmarks/out
	$(PYTHON) scripts/bench_report.py
	$(MAKE) perf-smoke

examples:
	for ex in examples/*.py; do echo "== $$ex =="; $(PYTHON) $$ex; echo; done

# Only what git does not track: benchmarks/out holds committed bench
# records next to ignored smoke output.
clean:
	git clean -fdxq benchmarks/out
	rm -rf .pytest_cache build *.egg-info src/*.egg-info
