"""Churn-soak benchmark: self-stabilization bounds for both modes.

Not a paper figure -- this records the self-stabilization trajectory
of the recovery stack, at the acceptance sizes: the
simulated overlay at 1024 nodes and the live loopback cluster at 256
nodes, each put through continuous join/leave/crash (+ partition)
churn with one adversarial corruption class per epoch (scrambled
expressway tables, stale map replicas, a poisoned owner index).  Per
cell it records rounds-to-convergence under the
:func:`~repro.core.recovery.check_invariants` legitimacy predicate,
lookup availability while the damage is live, and the false-kill /
false-purge counts that must stay zero.

The sim rows run on the simulated clock and are byte-stable per seed;
every live-mode quantity that depends on wall-clock races (rounds,
availability, corruption placement, retry traffic) lives under a
``wall``-prefixed key, which ``_common.emit`` prints but keeps out of
the committed record.
"""

from __future__ import annotations

import asyncio

from _common import emit
from repro.core.soak import SoakConfig, run_live_soak, run_sim_soak
from repro.experiments import format_table

SIM_NODES = 1024
LIVE_NODES = 256
ROUND_BUDGET = 30
SEED = 0


def _sim_rows(record: dict) -> list:
    return [
        {
            "mode": "sim",
            "nodes": record["nodes"],
            "kind": epoch["kind"],
            "corrupted": epoch["corrupted"],
            "availability": epoch["availability"],
            "rounds_to_converge": epoch["rounds_to_converge"],
        }
        for epoch in record["epochs"]
    ]


def _live_rows(record: dict) -> list:
    return [
        {
            "mode": "live",
            "nodes": record["nodes"],
            "kind": epoch["kind"],
            "wall_corrupted": epoch["corrupted"],
            "wall_rounds_to_converge": epoch["wall_rounds_to_converge"],
        }
        for epoch in record["epochs"]
    ]


def bench_churn_soak(benchmark):
    sim = run_sim_soak(
        SoakConfig(nodes=SIM_NODES, round_budget=ROUND_BUDGET, seed=SEED)
    )
    live = asyncio.run(
        run_live_soak(
            SoakConfig(
                nodes=LIVE_NODES,
                round_budget=ROUND_BUDGET,
                lookups=2 * LIVE_NODES,
                seed=SEED,
            )
        )
    )
    rows = _sim_rows(sim) + _live_rows(live)
    emit(
        "ext_churn_soak",
        f"Churn soak: sim {SIM_NODES} + live loopback {LIVE_NODES}",
        format_table(rows),
        rows=rows,
        params={
            "sim_nodes": SIM_NODES,
            "live_nodes": LIVE_NODES,
            "round_budget": ROUND_BUDGET,
            "corrupt_fraction": 0.2,
            "sim_false_kills": sim["false_kills"],
            "sim_false_purges": sim["false_purges"],
            "sim_takeovers": sim["takeovers"],
            "wall_live_availability": live["wall_availability"],
            "wall_live_false_kills": live["false_kills"],
            "wall_live_false_purges": live["false_purges"],
            "wall_live_killed": live["killed"],
            "wall_live_takeovers": live["takeovers"],
            "wall_live_shielded": live["shielded_verdicts"],
            "wall_live_retries": live["retries"],
        },
        seed=SEED,
    )

    # the timed unit: one sim epoch at a CI-friendly size
    benchmark.pedantic(
        lambda: run_sim_soak(
            SoakConfig(nodes=64, epochs=1, lookups=32, seed=SEED)
        ),
        rounds=1,
        iterations=1,
    )

    # every corruption class heals within the round budget, both modes
    assert sim["converged"], sim["epochs"]
    assert live["converged"], live["epochs"]
    # the detector never killed a live node and the lease maintenance
    # never purged a live member's record
    assert sim["false_kills"] == 0 and sim["false_purges"] == 0
    assert live["false_kills"] == 0 and live["false_purges"] == 0
    # lookups kept landing while a third of the cluster died
    assert live["wall_availability"] > 0.0
    assert live["killed"] >= LIVE_NODES // 4
