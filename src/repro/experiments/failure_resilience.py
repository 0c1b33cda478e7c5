"""Failure resilience: routing through a partially crashed overlay.

The paper picks a 2-dimensional eCAN "to give a reasonable
fault-tolerance capability".  This runner quantifies the resilience
that dimensionality (plus lazy table repair) buys: a fraction of
nodes crash simultaneously -- no graceful departure, no CAN takeover,
just dead expressway entries and dead soft-state records -- and the
survivors keep routing, repairing stale entries on the fly.

Crashes are modelled by removing the nodes through the normal CAN
takeover (zones must stay covered for keys to remain owned -- the CAN
invariant) while *not* withdrawing their soft-state or notifying
anyone: every routing table and map still references them, so every
path through a dead reference must detect and repair.

Reported per crash fraction: routing success rate, mean stretch of
the survivors, and repair traffic.

:func:`run_fault_injection` goes further: instead of a one-shot mass
crash against a perfect network, a :class:`FaultPlan` injects
continuous probe/message loss and the sweep compares the
fire-and-forget baseline against the full reliability stack
(per-hop retries with sim-clock backoff, dead-expressway skipping,
greedy degradation, N-confirmation maintenance probing).

:func:`run_recovery_policies` compares the lazy-repair-only stack
against the active self-healing stack (failure detection, crash
takeover, map replication, partition-heal reconciliation) under the
same chaos scenario, reporting completion rate, stretch and the
recovery traffic each policy pays.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core import OverlayParams, RetryPolicy, TopologyAwareOverlay
from repro.core.recovery import RECOVERY_CATEGORIES, check_invariants
from repro.core.reliability import NO_RETRY
from repro.experiments.common import Scale, current_scale, get_network
from repro.experiments.fig10_13_stretch_rtts import build_overlay
from repro.netsim.faults import FaultPlan, Partition
from repro.softstate.maintenance import MaintenancePolicy


def run(
    topology: str = "tsk-large",
    latency: str = "manual",
    scale: Scale = None,
    seed: int = 0,
    crash_fractions: tuple = (0.0, 0.1, 0.25, 0.5),
    probes: int = 128,
) -> list:
    """Rows: {"crash_fraction", "success_rate", "mean_stretch",
    "table_repairs", "stale_records"}."""
    if scale is None:
        scale = current_scale()
    rows = []
    for fraction in crash_fractions:
        overlay = build_overlay(
            topology,
            latency,
            scale.overlay_nodes,
            policy="softstate",
            topo_scale=scale.topo_scale,
            seed=seed,
        )
        rng = np.random.default_rng(seed + 91)
        victims = rng.choice(
            overlay.node_ids,
            size=int(fraction * len(overlay)),
            replace=False,
        )
        for victim in victims:
            # crash: zones hand over (CAN takeover), but soft-state and
            # other nodes' tables are left stale
            overlay.ecan.leave(int(victim))

        stats = overlay.network.stats
        repairs_before = stats.get("table_repair")
        survivors = np.array(overlay.node_ids)
        successes, stretches = 0, []
        for _ in range(probes):
            src, dst = rng.choice(survivors, size=2, replace=False)
            result, stretch = overlay.route_between(int(src), int(dst))
            if result.success:
                successes += 1
                if stretch is not None:
                    stretches.append(stretch)
        rows.append(
            {
                "crash_fraction": fraction,
                "success_rate": successes / probes,
                "mean_stretch": float(np.mean(stretches)) if stretches else None,
                "table_repairs": stats.get("table_repair") - repairs_before,
                "stale_records": overlay.maintenance.stale_entries(),
            }
        )
    return rows


#: the reliability stack the "retry" arm of the sweep enables
DEFAULT_RETRY = RetryPolicy(max_attempts=3, base_delay=25.0, max_delay=400.0)


def run_fault_injection(
    topology: str = "tsk-large",
    latency: str = "manual",
    scale: Scale = None,
    seed: int = 0,
    loss_rates: tuple = (0.0, 0.05, 0.1, 0.2),
    probes: int = 128,
    crash_fraction: float = 0.1,
    max_sweeps: int = 20,
) -> list:
    """Sweep loss rate x retry policy under an armed fault plan.

    For each cell an overlay is built on a perfect network, then a
    :class:`FaultPlan` with symmetric probe/message loss is armed and
    three phases run:

    1. **routing** -- ``probes`` random routes; reports success rate,
       mean stretch, resend attempts and expressway degradations;
    2. **maintenance under loss** -- one periodic sweep over a fully
       live overlay; reports false-positive purges (the baseline arm
       polls with one unconfirmed fire-and-forget ping, the retry arm
       with N-confirmation probing);
    3. **crash recovery** -- ``crash_fraction`` of members crash-stop
       and periodic sweeps run until every stale record is purged;
       reports the simulated ms from the last crash until the state
       converged.

    Rows: {"loss_rate", "policy", "success_rate", "mean_stretch",
    "retries", "degraded", "false_purges", "recovery_ms",
    "injected_faults"}.
    """
    if scale is None:
        scale = current_scale()
    rows = []
    for loss in loss_rates:
        for policy_name, retry in (("none", None), ("retry", DEFAULT_RETRY)):
            network = get_network(topology, latency, scale.topo_scale, seed)
            overlay = TopologyAwareOverlay(
                network,
                OverlayParams(
                    num_nodes=scale.overlay_nodes, policy="softstate", seed=seed + 101
                ),
                retry_policy=retry,
            )
            overlay.build()
            injector = overlay.arm_faults(
                FaultPlan().with_loss(loss), seed=seed + 17
            )
            try:
                rng = np.random.default_rng(seed + 91)
                ids = np.array(overlay.node_ids)
                successes, stretches, resends, degradations = 0, [], 0, 0
                with network.telemetry.phase("fault_routing"):
                    for _ in range(probes):
                        src, dst = rng.choice(ids, size=2, replace=False)
                        result, stretch = overlay.route_between(int(src), int(dst))
                        resends += result.retries
                        degradations += result.degraded
                        if result.success:
                            successes += 1
                            if stretch is not None:
                                stretches.append(stretch)

                # one periodic sweep over a fully live overlay: every purge
                # is a false positive by construction
                overlay.maintenance.policy = MaintenancePolicy.PERIODIC
                if retry is None:
                    overlay.maintenance.retry_policy = NO_RETRY
                    overlay.maintenance.confirmations = 1
                overlay.maintenance.poll_once()
                false_purges = overlay.maintenance.false_purges

                # crash-stop a fraction, then time the purge sweeps until
                # the state is clean (the departures' own table-rebuild
                # probes are not recovery)
                with network.telemetry.phase("fault_recovery"):
                    victims = rng.choice(
                        overlay.node_ids,
                        size=int(crash_fraction * len(overlay)),
                        replace=False,
                    )
                    for victim in victims:
                        overlay.remove_node(int(victim), graceful=False)
                    start = network.clock.now
                    sweeps = 0
                    while (
                        overlay.maintenance.stale_entries() > 0
                        and sweeps < max_sweeps
                    ):
                        network.clock.advance(overlay.maintenance.poll_interval)
                        overlay.maintenance.poll_once()
                        sweeps += 1
                recovered = overlay.maintenance.stale_entries() == 0
                recovery_ms = network.clock.now - start if recovered else math.inf

                rows.append(
                    {
                        "loss_rate": loss,
                        "policy": policy_name,
                        "success_rate": successes / probes,
                        "mean_stretch": float(np.mean(stretches))
                        if stretches
                        else None,
                        "retries": resends,
                        "degraded": degradations,
                        "false_purges": false_purges,
                        "recovery_ms": recovery_ms,
                        "injected_faults": injector.injected_total(),
                    }
                )
            finally:
                overlay.disarm_faults()
    return rows


def run_recovery_policies(
    topology: str = "tsk-large",
    latency: str = "manual",
    scale: Scale = None,
    seed: int = 0,
    crash_fraction: float = 0.2,
    probe_loss: float = 0.1,
    probes: int = 128,
    replication_factor: int = 2,
    settle_ms: float = 20000.0,
    partition_window: tuple = (4000.0, 9000.0),
) -> list:
    """Lazy-repair-only vs active recovery under the same chaos.

    Both arms face the identical scenario: ``crash_fraction`` of the
    members crash-stop simultaneously (no takeover -- their zones are
    orphaned, their soft-state stale), one transit domain is
    partitioned off for ``partition_window`` (relative ms), and every
    probe suffers ``probe_loss``.  The **lazy** arm repairs only on
    use, as the pre-recovery stack did: periodic maintenance purges
    stale records and routing fixes dead expressway entries when it
    trips over them, but nobody absorbs the orphaned zones.  The
    **active** arm arms the full self-healing stack
    (:meth:`TopologyAwareOverlay.enable_recovery` + map replication).

    Rows: {"policy", "completion_rate", "mean_stretch",
    "recovery_traffic", "false_kills", "invariants_ok",
    "stale_records", "confirmed_dead"}.
    """
    if scale is None:
        scale = current_scale()
    traffic_categories = RECOVERY_CATEGORIES + ("table_repair", "maintenance_ping")
    rows = []
    for policy_name in ("lazy", "active"):
        active = policy_name == "active"
        network = get_network(topology, latency, scale.topo_scale, seed)
        overlay = TopologyAwareOverlay(
            network,
            OverlayParams(
                num_nodes=scale.overlay_nodes,
                policy="softstate",
                replication_factor=replication_factor if active else 1,
                seed=seed + 101,
            ),
            maintenance_policy=MaintenancePolicy.PERIODIC,
            retry_policy=DEFAULT_RETRY,
        )
        overlay.build()
        now = network.clock.now
        plan = FaultPlan(
            probe_loss_rate=probe_loss,
            partitions=(
                Partition(
                    now + partition_window[0], now + partition_window[1], (0,)
                ),
            ),
        )
        injector = overlay.arm_faults(plan, seed=seed + 17)
        if active:
            overlay.enable_recovery()
        try:
            rng = np.random.default_rng(seed + 91)
            victims = rng.choice(
                overlay.node_ids,
                size=int(crash_fraction * len(overlay)),
                replace=False,
            )
            before = {c: network.stats.get(c) for c in traffic_categories}
            for victim in victims:
                overlay.crash_node(int(victim))
            network.clock.run_until(now + settle_ms)
            # a bounded number of maintenance sweeps after the settle
            # window: purges whatever went stale, re-publishes whatever
            # was lost (one sweep's confirmation backoffs advance the
            # shared clock, so sweeps are driven explicitly rather than
            # racing a periodic timer against the detector)
            for _ in range(3):
                network.clock.advance(overlay.maintenance.poll_interval)
                overlay.maintenance.poll_once()
            traffic = sum(
                network.stats.get(c) - before[c] for c in traffic_categories
            )
            try:
                check_invariants(overlay, overlay.detector)
                invariants_ok = True
            except AssertionError:
                invariants_ok = False

            corpses = set(int(v) for v in victims)
            survivors = np.array(
                [n for n in overlay.node_ids if n not in corpses]
            )
            successes, stretches = 0, []
            for _ in range(probes):
                src, dst = rng.choice(survivors, size=2, replace=False)
                result, stretch = overlay.route_between(int(src), int(dst))
                if result.success and result.owner not in corpses:
                    successes += 1
                    if stretch is not None:
                        stretches.append(stretch)
            detector = overlay.detector
            rows.append(
                {
                    "policy": policy_name,
                    "completion_rate": successes / probes,
                    "mean_stretch": float(np.mean(stretches))
                    if stretches
                    else None,
                    "recovery_traffic": traffic,
                    "false_kills": 0 if detector is None else detector.false_kills,
                    "invariants_ok": invariants_ok,
                    "stale_records": overlay.maintenance.stale_entries(),
                    "confirmed_dead": 0
                    if detector is None
                    else len(detector.confirmed_dead),
                    "injected_faults": injector.injected_total(),
                }
            )
        finally:
            overlay.disable_recovery()
            overlay.disarm_faults()
    return rows
