# Convenience targets for the reproduction.

PYTHON ?= python

.PHONY: install test bench bench-medium bench-paper bench-smoke perf-smoke perf-pairs chaos-smoke runtime-smoke shard-smoke soak-smoke overload-smoke mgmt-smoke report examples ci clean

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
	python3 benchmarks/perf/run.py --smoke

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

# The live-runtime acceptance scenario: boot a 64-node cluster over
# the loopback transport (joins travel as wire frames), drive 1000
# open-loop lookups, and assert bit-identical owners/endpoints against
# an independently built synchronous simulator -- once per payload
# encoding (JSON and packed), pinning the struct fast path to the
# JSON semantics.
runtime-smoke:
	$(PYTHON) scripts/runtime_smoke.py

# The sharded-runtime acceptance scenario: 64 nodes across 4 worker
# processes (one event loop each, cross-shard frames over TCP peering
# sockets), held to the identical sim-parity bar as the single-process
# runtime, plus a closed-loop throughput sanity gate and a check that
# cross-shard traffic actually flowed.  Leaves
# benchmarks/out/shard/shard_smoke.json.
shard-smoke:
	$(PYTHON) scripts/shard_smoke.py --json benchmarks/out/shard/shard_smoke.json

# The self-stabilization gate: CI-sized churn soak in both execution
# modes.  A sim overlay and a live loopback cluster take continuous
# join/leave/crash/partition churn plus adversarial state corruption
# (scrambled tables, stale replicas, poisoned owner index) and must
# converge back to check_invariants-clean within the round budget,
# with zero false kills/purges and measured availability through a
# kill-33% event.  Leaves benchmarks/out/soak/churn_soak.json.
soak-smoke:
	$(PYTHON) scripts/churn_soak.py --smoke

# The overload-protection gate: a small loopback cluster with tiny
# data-lane mailboxes takes 2x closed-loop overload while the SWIM
# detector ticks against the saturated nodes.  Asserts shed > 0 (the
# protection engaged), zero false crash verdicts, and a goodput floor
# of half the measured capacity.  Leaves
# benchmarks/out/overload/overload_smoke.json.
overload-smoke:
	$(PYTHON) scripts/overload_smoke.py

# The management-plane gate: attach the HTTP controller to a live
# single-process cluster (SWIM recovery armed) and a 2-shard cluster,
# require every endpoint to answer (/topology /stats /health as
# schema-valid JSON, /metrics as strictly-parsed Prometheus text, the
# zone-map page at /), and require /health to flip to 503 degraded
# within one probe period of a crash and back to 200 healthy once the
# recovery stack repairs.  Leaves benchmarks/out/mgmt/mgmt_smoke.json.
mgmt-smoke:
	$(PYTHON) scripts/mgmt_smoke.py --json benchmarks/out/mgmt/mgmt_smoke.json

# The recovery acceptance scenario: 20% simultaneous crash + one
# transit partition window under probe loss; asserts the stack-wide
# invariants hold post-recovery and that no live node was falsely
# killed, on every seed.  Leaves a recovery-telemetry JSON artifact
# under benchmarks/out/chaos/.
chaos-smoke:
	$(PYTHON) scripts/chaos_smoke.py

# What the GitHub workflow runs: the full test suite plus quick-scale
# smoke runs of the resilience benches (timing disabled -- the assertions
# on success rate / false purges are the point), the chaos recovery
# scenario, the live-runtime parity smoke, and the bench-smoke JSON
# trajectory check.
ci:
	$(PYTHON) -m pytest tests/ -q
	$(PYTHON) -m pytest benchmarks/bench_ext_failure_resilience.py \
		benchmarks/bench_ext_fault_injection.py -q --benchmark-disable
	$(MAKE) chaos-smoke
	$(MAKE) runtime-smoke
	$(MAKE) shard-smoke
	$(MAKE) soak-smoke
	$(MAKE) overload-smoke
	$(MAKE) mgmt-smoke
	$(MAKE) bench-smoke
	$(PYTHON) scripts/bench_report.py --check
	$(MAKE) perf-smoke

examples:
	for ex in examples/*.py; do echo "== $$ex =="; $(PYTHON) $$ex; echo; done

clean:
	rm -rf benchmarks/out .pytest_cache build *.egg-info src/*.egg-info
