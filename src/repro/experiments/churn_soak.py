"""Churn soak: the self-stabilization record of both execution modes.

Not a paper figure -- the trajectory of the recovery stack at the
acceptance sizes: the simulated overlay and the live loopback cluster,
each put through continuous join/leave/crash (+ partition) churn with
one adversarial corruption class per epoch (scrambled expressway
tables, stale map replicas, a poisoned owner index).  Per cell it
records rounds-to-convergence under the
:func:`~repro.core.recovery.check_invariants` legitimacy predicate,
lookup availability while the damage is live, and the false-kill /
false-purge counts that must stay zero.

Expected shape: every corruption class heals within the round budget
in both modes; the detector never kills a live node and the lease
maintenance never purges a live member's record; lookups keep landing
while a third of the live cluster dies.

The sim rows run on the simulated clock and are byte-stable per seed;
every live-mode quantity that depends on wall-clock races (rounds,
availability, corruption placement, retry traffic) is returned under a
``wall``-prefixed key, which a committed record drops.
"""

from __future__ import annotations

import asyncio

from repro.core.soak import SoakConfig, run_live_soak, run_sim_soak


def run(
    seed: int = 0,
    sim_nodes: int = 1024,
    live_nodes: int = 256,
    round_budget: int = 30,
) -> tuple:
    """``(rows, outcomes)``: one row per (mode, epoch), and the run-wide
    counts of each mode (``sim_*`` / ``wall_live_*``) a record keeps
    beside its parameters."""
    sim = run_sim_soak(
        SoakConfig(nodes=sim_nodes, round_budget=round_budget, seed=seed)
    )
    live = asyncio.run(
        run_live_soak(
            SoakConfig(
                nodes=live_nodes,
                round_budget=round_budget,
                lookups=2 * live_nodes,
                seed=seed,
            )
        )
    )
    rows = [
        {
            "mode": "sim",
            "nodes": sim["nodes"],
            "kind": epoch["kind"],
            "corrupted": epoch["corrupted"],
            "availability": epoch["availability"],
            "rounds_to_converge": epoch["rounds_to_converge"],
        }
        for epoch in sim["epochs"]
    ] + [
        {
            "mode": "live",
            "nodes": live["nodes"],
            "kind": epoch["kind"],
            "wall_corrupted": epoch["corrupted"],
            "wall_rounds_to_converge": epoch["wall_rounds_to_converge"],
        }
        for epoch in live["epochs"]
    ]
    outcomes = {
        "sim_false_kills": sim["false_kills"],
        "sim_false_purges": sim["false_purges"],
        "sim_takeovers": sim["takeovers"],
        "sim_zone_reassigns": sim["zone_reassigns"],
        "wall_live_availability": live["wall_availability"],
        "wall_live_false_kills": live["false_kills"],
        "wall_live_false_purges": live["false_purges"],
        "wall_live_killed": live["killed"],
        "wall_live_takeovers": live["takeovers"],
        "wall_live_shielded": live["shielded_verdicts"],
        "wall_live_retries": live["retries"],
    }
    return rows, outcomes
