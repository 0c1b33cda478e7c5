"""Churn-soak harness: drive the overlay back to legitimacy from anywhere.

Berns et al.'s self-stabilization framework (PAPERS.md) asks for more
than surviving clean crashes: convergence from *arbitrary* states --
a legitimate-state predicate plus a bounded number of repair rounds
from any corruption an adversary can leave behind.  This module is
that harness for both execution modes:

* the **legitimacy detector** is
  :func:`repro.core.recovery.check_invariants` -- tessellation
  coverage, store/index agreement, liveness of every reference;
* the **adversary** is :func:`inject_corruption`, which scrambles
  expressway tables, stales map replicas, or poisons the owner index
  in place;
* the **repair engine** is the recovery stack: the failure detector's
  verdicts plus the scrub/reconcile anti-entropy passes.

:func:`run_sim_soak` soaks a simulated overlay under continuous
join/leave/crash/partition churn on the simulated clock;
:func:`run_live_soak` does the same against a live
:class:`~repro.runtime.cluster.Cluster` over the wire, measuring
lookup availability through a kill-33%-of-nodes event.  Both record
rounds-to-convergence per corruption class -- the bound the
``ext_churn_soak`` bench and the ``soak`` scenario of
``scripts/smoke.py`` assert on.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, replace

import numpy as np

from repro.core.builder import TopologyAwareOverlay
from repro.core.config import NetworkParams, OverlayParams, make_network
from repro.core.recovery import DetectorParams, check_invariants
from repro.netsim.faults import FaultPlan, Partition

#: the adversarial state-corruption classes the harness must heal from;
#: a sim soak runs one churn epoch per class
CORRUPTION_KINDS = ("scramble_tables", "stale_replicas", "poison_owner_index")
#: members joined, and again departed and crashed, per churn epoch
CHURN_PER_EPOCH = 2
#: the transit-stub scale a soak's physical network is built at
SOAK_TOPO_SCALE = 0.25


@dataclass(frozen=True)
class SoakConfig:
    """Shape of one soak run (either execution mode)."""

    nodes: int = 256
    #: maximum repair rounds allowed before convergence counts as failed
    round_budget: int = 30
    #: availability probes per epoch (sim) / load requests (live)
    lookups: int = 128
    seed: int = 0


# -- the adversary -----------------------------------------------------------


#: share of the chosen structure's entries one corruption hits
CORRUPT_FRACTION = 0.2


def inject_corruption(overlay, kind: str, rng) -> int:
    """Corrupt live overlay state in place; returns entries corrupted.

    :data:`CORRUPT_FRACTION` of the chosen structure's entries are hit
    (at least one).  Each class trips a distinct :func:`check_invariants`
    assertion until the matching repair runs:

    * ``scramble_tables`` -- point expressway entries at ghost node
      ids that are not members; caught by the table-liveness
      assertion, repaired by
      :meth:`~repro.core.recovery.RecoveryManager.scrub_tables`.
    * ``stale_replicas`` -- move stored map copies off their computed
      positions; caught by the stale-position assertion, repaired by
      :meth:`~repro.core.recovery.RecoveryManager.scrub_store`
      re-publishing the subjects.
    * ``poison_owner_index`` -- re-attribute owner-index entries to
      wrong (live) owners, consistently on both index sides; caught by
      ``check_owner_index``'s brute-force cross-check, repaired by
      :meth:`~repro.softstate.store.SoftStateStore.rebuild_owner_index`.
    """
    store = overlay.store
    if kind == "scramble_tables":
        ecan = overlay.ecan
        slots = [
            (node_id, level, cell)
            for node_id, table in ecan._tables.items()
            for level, row in table.items()
            for cell in row
        ]
        if not slots:
            return 0
        count = min(len(slots), max(1, int(CORRUPT_FRACTION * len(slots))))
        picks = rng.choice(len(slots), size=count, replace=False)
        ghost = -4096  # ids are non-negative, so never a member
        for index in picks:
            node_id, level, cell = slots[int(index)]
            ecan._tables[node_id][level][cell] = ghost
            ghost -= 1
        return count
    # the other two classes pick among the stored map records
    entries = [
        (region, node_id)
        for region, bucket in store.maps.items()
        for node_id in bucket
    ]
    if kind == "stale_replicas":
        if not entries:
            return 0
        count = min(len(entries), max(1, int(CORRUPT_FRACTION * len(entries))))
        picks = rng.choice(len(entries), size=count, replace=False)
        for index in picks:
            region, node_id = entries[int(index)]
            stored = store.maps[region][node_id]
            zone = region.zone()
            jitter = rng.random(len(stored.position))
            stored.position = tuple(
                lo + float(j) * (hi - lo)
                for j, lo, hi in zip(jitter, zone.lo, zone.hi)
            )
        return count
    if kind == "poison_owner_index":
        members = sorted(overlay.ecan.can.nodes)
        if not entries or len(members) < 2:
            return 0
        count = min(len(entries), max(1, int(CORRUPT_FRACTION * len(entries))))
        picks = rng.choice(len(entries), size=count, replace=False)
        for index in picks:
            region, node_id = entries[int(index)]
            current = store.maps[region][node_id].owner
            wrong = members[int(rng.integers(0, len(members)))]
            if wrong == current:
                wrong = members[(members.index(wrong) + 1) % len(members)]
            # keep both index sides mutually consistent -- the
            # corruption must survive everything except the
            # brute-force cross-check
            store._index_insert(region, node_id, wrong)
        return count
    raise ValueError(f"unknown corruption kind {kind!r}")


def _legitimate(overlay, detector):
    """(ok, violation) under the legitimacy predicate."""
    try:
        check_invariants(overlay, detector)
        return True, None
    except AssertionError as exc:
        return False, str(exc).splitlines()[0]


# -- simulated-clock soak ----------------------------------------------------


def _live_members(overlay) -> list:
    crashed = (
        overlay.network.faults.crashed_hosts
        if overlay.network.faults is not None
        else set()
    )
    return [
        node_id
        for node_id, node in overlay.ecan.can.nodes.items()
        if node.host not in crashed
    ]


def _sim_availability(overlay, rng, samples: int) -> float:
    """Fraction of uniform routes from live members that deliver."""
    if samples <= 0:
        return float("nan")
    members = _live_members(overlay)
    dims = overlay.ecan.dims
    delivered = 0
    for _ in range(samples):
        src = members[int(rng.integers(0, len(members)))]
        point = tuple(float(x) for x in rng.random(dims))
        result = overlay.ecan.route(src, point, category="soak_lookup")
        delivered += bool(result.success)
    return delivered / samples


def _converge_sim(overlay, budget: int) -> tuple:
    """(rounds_to_converge | None, last_violation) on the sim clock.

    One repair round = one detector period elapsing (probes fire),
    then a scrub pass and a reconcile pass -- exactly the periodic
    work a deployment would schedule.
    """
    recovery = overlay.recovery
    clock = overlay.network.clock
    period = overlay.detector.params.period
    violation = None
    for round_index in range(1, budget + 1):
        clock.run_until(clock.now + period)
        recovery.scrub()
        recovery.reconcile()
        ok, violation = _legitimate(overlay, overlay.detector)
        if ok:
            return round_index, None
    return None, violation


def run_sim_soak(config: SoakConfig) -> dict:
    """Soak a simulated overlay; returns the per-epoch convergence record.

    Fully deterministic in ``config`` (pure simulated clock + seeded
    RNG), so results are byte-stable across runs.
    """
    network = make_network(
        NetworkParams(topo_scale=SOAK_TOPO_SCALE, seed=config.seed)
    )
    overlay = TopologyAwareOverlay(
        network, OverlayParams(num_nodes=config.nodes, seed=config.seed)
    )
    overlay.build_bulk(config.nodes)
    overlay.arm_faults(FaultPlan(), seed=config.seed)
    overlay.enable_recovery()
    rng = np.random.default_rng(config.seed)
    detector = overlay.detector
    epochs = []
    for epoch, kind in enumerate(CORRUPTION_KINDS):
        # -- churn: joins, graceful leaves, crash-stops ------------------
        for _ in range(CHURN_PER_EPOCH):
            overlay.add_node()
        for _ in range(CHURN_PER_EPOCH):
            members = _live_members(overlay)
            overlay.remove_node(members[int(rng.integers(0, len(members)))])
        crash_loss = 0
        for _ in range(CHURN_PER_EPOCH):
            members = _live_members(overlay)
            victim = members[int(rng.integers(0, len(members)))]
            crash_loss += overlay.crash_node(victim)["lost"]
        if epoch % 2 == 1:  # the partition half of the churn mix
            _install_partition(overlay, rng)
        # -- availability while the corpses are still members ------------
        availability = _sim_availability(overlay, rng, config.lookups)
        # -- adversarial corruption --------------------------------------
        corrupted = inject_corruption(overlay, kind, rng)
        # -- bounded convergence -----------------------------------------
        rounds, violation = _converge_sim(overlay, config.round_budget)
        # lease maintenance sweeps the now-clean state: with every
        # corpse taken over, any purge of a member here is a genuine
        # false purge (the metric must stay 0)
        overlay.maintenance.poll_once()
        epochs.append(
            {
                "mode": "sim",
                "epoch": epoch,
                "kind": kind,
                "corrupted": int(corrupted),
                "crash_lost_records": int(crash_loss),
                "availability": round(availability, 4),
                "rounds_to_converge": rounds,
                "violation": violation,
            }
        )
    return {
        "mode": "sim",
        "nodes": config.nodes,
        "nodes_final": len(overlay),
        "epochs": epochs,
        "converged": all(e["rounds_to_converge"] is not None for e in epochs),
        "false_kills": detector.false_kills,
        "false_purges": overlay.maintenance.false_purges,
        "shielded_verdicts": detector.shielded_verdicts,
        "takeovers": overlay.recovery.takeovers,
        "scrub_repairs": overlay.recovery.scrubbed,
    }


def _install_partition(overlay, rng) -> Partition:
    """Sever one member's transit domain for six detector periods.

    The window overlaps the convergence loop, so the detector must
    *shield* its verdicts against the severed side (silence is
    explainable) and reconcile the suspicions away after the heal --
    the partition half of the churn mix.
    """
    network = overlay.network
    faults = network.faults
    members = _live_members(overlay)
    host = overlay.ecan.can.nodes[
        members[int(rng.integers(0, len(members)))]
    ].host
    domain = int(network.topology.transit_domain[host])
    period = overlay.detector.params.period
    # long enough for suspicion on the severed side to cross the
    # confirm threshold, where the shield must hold the verdict
    window = Partition(
        start=network.clock.now,
        end=network.clock.now + 6.0 * period,
        domains=(domain,),
    )
    faults.plan = replace(
        faults.plan, partitions=faults.plan.partitions + (window,)
    )
    return window


# -- live-runtime soak -------------------------------------------------------

#: offered lookup load (req/s) through the kill-33% event
LIVE_RATE = 400.0
#: detector cadence, probe patience and request timeout (wall s)
LIVE_HEARTBEAT_PERIOD = 0.05
LIVE_PROBE_TIMEOUT = 0.25
LIVE_REQUEST_TIMEOUT = 1.0


async def _converge_live(cluster, recovery, budget: int) -> tuple:
    """(rounds_to_converge | None, last_violation) on the wall clock."""
    violation = None
    for round_index in range(1, budget + 1):
        await asyncio.sleep(recovery.period_s)
        recovery.scrub()
        await recovery.reconcile()
        ok, violation = _legitimate(cluster.overlay, recovery)
        if ok:
            return round_index, None
    return None, violation


async def run_live_soak(config: SoakConfig) -> dict:
    """Soak a live cluster over the wire; returns the convergence record.

    Sequence: bulk-boot N actors, arm the SWIM loop, then (1) sustain
    open-loop lookup traffic through a kill-33%-of-nodes event and
    measure availability, (2) converge from the mass kill, (3) shield
    a live partition window, heal it and reconcile, (4) inject each
    corruption class and converge within the round budget.  Rounds and
    availability depend on wall-clock races, so callers must report
    them under ``wall``-prefixed keys.
    """
    from repro.core.reliability import RetryPolicy
    from repro.runtime.cluster import Cluster, ClusterConfig
    from repro.runtime.loadgen import run_load

    cluster_config = ClusterConfig(
        nodes=config.nodes,
        network=NetworkParams(topo_scale=SOAK_TOPO_SCALE, seed=config.seed),
        overlay=OverlayParams(num_nodes=config.nodes, seed=config.seed),
        request_timeout=LIVE_REQUEST_TIMEOUT,
        heartbeat_period=LIVE_HEARTBEAT_PERIOD,
        probe_timeout=LIVE_PROBE_TIMEOUT,
        retry=RetryPolicy(max_attempts=2, base_delay=20.0, max_delay=100.0),
        bulk_boot=True,
    )
    rng = np.random.default_rng(config.seed)
    cluster = Cluster(cluster_config)
    await cluster.start()
    try:
        recovery = await cluster.enable_recovery(
            DetectorParams(
                period=LIVE_HEARTBEAT_PERIOD * 1000.0,
                suspicion_periods=1,
            )
        )
        # -- (1) lookup traffic through a kill-33% event -----------------
        load = asyncio.get_running_loop().create_task(
            run_load(cluster, rate=LIVE_RATE, count=config.lookups, seed=config.seed)
        )
        # let roughly a third of the arrivals land, then pull the rug
        await asyncio.sleep(config.lookups / (3.0 * LIVE_RATE))
        victims = await cluster.kill_fraction(1.0 / 3.0, seed=config.seed)
        report = await load
        availability = report.succeeded / report.ops if report.ops else 0.0
        # -- (2) converge from the mass kill -----------------------------
        epochs = []
        rounds, violation = await _converge_live(
            cluster, recovery, config.round_budget
        )
        epochs.append(
            {
                "mode": "live",
                "kind": "kill_33pct",
                "corrupted": len(victims),
                "wall_rounds_to_converge": rounds,
                "violation": violation,
            }
        )
        # -- (3) partition shielding + heal ------------------------------
        members = sorted(cluster.actors)
        host = cluster.overlay.ecan.can.nodes[
            members[int(rng.integers(0, len(members)))]
        ].host
        domain = int(cluster.network.topology.transit_domain[host])
        cluster.partition([domain])
        # hold the cut until enough detector rounds complete for
        # suspicion on the severed side to reach the confirm threshold,
        # where the shield must hold the verdict (false_kills staying 0
        # through this phase is the proof); rounds are counted rather
        # than wall time because tick cadence stretches under load
        first = recovery.rounds
        loop_time = asyncio.get_running_loop().time
        deadline = loop_time() + max(5.0, 60.0 * recovery.period_s)
        while recovery.rounds < first + 5 and loop_time() < deadline:
            await asyncio.sleep(recovery.period_s)
        shielded = recovery.shielded_verdicts
        cluster.heal_partition()
        await recovery.reconcile()
        # -- (4) churn + the three corruption classes --------------------
        for _ in range(CHURN_PER_EPOCH):
            await cluster.restart()
        for _ in range(CHURN_PER_EPOCH):
            live = [n for n in cluster.actors if n != cluster.bootstrap.addr]
            await cluster.leave(live[int(rng.integers(0, len(live)))])
        for kind in CORRUPTION_KINDS:
            corrupted = inject_corruption(cluster.overlay, kind, rng)
            rounds, violation = await _converge_live(
                cluster, recovery, config.round_budget
            )
            epochs.append(
                {
                    "mode": "live",
                    "kind": kind,
                    "corrupted": int(corrupted),
                    "wall_rounds_to_converge": rounds,
                    "violation": violation,
                }
            )
        counters = cluster.retry_counters()
        return {
            "mode": "live",
            "transport": cluster_config.transport,
            "nodes": config.nodes,
            "nodes_final": len(cluster),
            "epochs": epochs,
            "converged": all(
                e["wall_rounds_to_converge"] is not None for e in epochs
            ),
            "wall_availability": round(availability, 4),
            "load_ops": report.ops,
            "load_errors": report.errors,
            "wall_p99_ms": report.percentiles()["p99"],
            "killed": len(victims),
            "false_kills": recovery.false_kills,
            "false_purges": cluster.overlay.maintenance.false_purges,
            "shielded_verdicts": shielded,
            "takeovers": recovery.manager.takeovers,
            "scrub_repairs": recovery.manager.scrubbed,
            "retries": counters["retries"],
            "wall_backoff_ms": counters["backoff_ms"],
        }
    finally:
        await cluster.stop()
