"""Management-plane snapshots: topology, stats and health as plain dicts.

Everything the HTTP API serves is computed here, over
:class:`~repro.runtime.cluster.ClusterSurface` -- the state and
methods the single-process :class:`~repro.runtime.cluster.Cluster`
and the multi-process :class:`~repro.runtime.shard.ShardedCluster`
inherit alike -- so one controller serves both.

Every snapshot is schema-versioned, JSON-serialisable and emitted
with sorted keys/members, so two identically-seeded clusters produce
byte-identical ``/topology`` documents (the golden-JSON property the
endpoint tests pin).
"""

from __future__ import annotations

from repro.core.recovery import check_invariants, detector_verdicts
from repro.runtime.cluster import retry_counts

#: bump when a serving change breaks consumers of the JSON documents
TOPOLOGY_SCHEMA_VERSION = 1
STATS_SCHEMA_VERSION = 2
HEALTH_SCHEMA_VERSION = 1

#: health verdict -> HTTP status code served by the controller
HEALTH_STATUS_CODES = {"healthy": 200, "degraded": 503, "unhealthy": 500}


def _sorted_numbers(mapping) -> dict:
    """A sorted-key copy with plain ``int``/``float`` values."""
    out = {}
    for key in sorted(mapping):
        value = mapping[key]
        out[str(key)] = float(value) if isinstance(value, float) else int(value)
    return out


# -- /topology ---------------------------------------------------------------


def topology_snapshot(cluster) -> dict:
    """The zones, members, expressway links and shard assignment.

    A versioned, deterministic JSON document of the CAN tessellation:
    every member with its physical placement (host, transit domain,
    owning shard), its zone boxes, CAN neighbors and published
    load/capacity; every expressway table entry as a ``src -> dst``
    link tagged with its ``(level, cell)``; plus the crash ledger of
    corpses the overlay still lists.  Pure parent-side reads -- on a
    sharded cluster this renders the parent's replica, which is
    bit-identical to the workers' by construction.
    """
    config = cluster.config
    can = cluster.overlay.ecan.can
    nodes = can.nodes
    domains = cluster.network.topology.transit_domain
    registry = cluster.overlay.store.registry

    members = []
    for node_id in sorted(nodes):
        node = nodes[node_id]
        record = registry.get(node_id)
        host = int(node.host)
        members.append(
            {
                "id": int(node_id),
                "host": host,
                "domain": int(domains[host]),
                "shard": int(cluster.shard_of(node_id)),
                "zones": [
                    {
                        "lo": [float(x) for x in zone.lo],
                        "hi": [float(x) for x in zone.hi],
                        "depth": int(zone.depth),
                    }
                    for zone in node.zones
                ],
                "neighbors": sorted(int(n) for n in node.neighbors),
                "load": float(record.load) if record is not None else 0.0,
                "capacity": float(record.capacity) if record is not None else 1.0,
            }
        )

    expressways = []
    tables = cluster.overlay.ecan._tables
    for src in sorted(tables):
        for level in sorted(tables[src]):
            row = tables[src][level]
            for cell in sorted(row):
                expressways.append(
                    {
                        "src": int(src),
                        "level": int(level),
                        "cell": [int(c) for c in cell],
                        "dst": int(row[cell]),
                    }
                )

    by_shard = [0] * config.shards
    for member in members:
        by_shard[member["shard"]] += 1

    return {
        "schema_version": TOPOLOGY_SCHEMA_VERSION,
        "zone_version": int(can.zone_version),
        "dims": int(can.dims),
        "transport": config.transport,
        "members": members,
        "expressways": expressways,
        "crashed": [
            {"id": int(node_id), "host": int(host)}
            for node_id, host in sorted(cluster.crashed.items())
        ],
        "shards": {"count": config.shards, "members_per_shard": by_shard},
        "volume": float(can.total_volume()),
    }


# -- /stats ------------------------------------------------------------------


async def stats_snapshot(cluster) -> dict:
    """Aggregated telemetry counts, transport and overload accounting.

    Wraps the harness's ``counters()`` aggregate (summed across shard
    replicas on a :class:`~repro.runtime.shard.ShardedCluster`) with
    the parent telemetry's gauges and phase timers and the retry
    accounting read off the same event counts, every section sorted
    for deterministic export -- the same document
    :func:`repro.mgmt.prometheus.render_prometheus` renders as text
    exposition.
    """
    counters = await cluster.counters()
    telemetry = cluster.network.telemetry
    snapshot = {
        "schema_version": STATS_SCHEMA_VERSION,
        "shards": cluster.config.shards,
        "transport": cluster.config.transport,
        "events": _sorted_numbers(counters["events"]),
        "gauges": _sorted_numbers(telemetry.gauges),
        "phases": {
            name: {
                "sim_ms": float(acc["sim_ms"]),
                "wall_s": float(acc["wall_s"]),
                "entries": int(acc["entries"]),
            }
            for name, acc in sorted(telemetry.phases.items())
        },
        "transport_counters": _sorted_numbers(counters["transport"]),
        "overload": _sorted_numbers(counters["overload"]),
        "retries": retry_counts(counters["events"]),
    }
    per_shard = counters.get("per_shard")
    if per_shard is not None:
        snapshot["per_shard"] = [
            {
                section: _sorted_numbers(values)
                for section, values in shard.items()
            }
            for shard in per_shard
        ]
    return snapshot


# -- /health -----------------------------------------------------------------


def _breaker_summary(cluster, members) -> dict:
    """Circuit-breaker states toward *current members*, across actors.

    Breakers toward departed peers are ignored: a breaker opened
    against a node the recovery stack has since removed is stale
    bookkeeping, not an active degradation.  A sharded parent serves
    no actors, so its summary is all zeros; the aggregated
    ``breakers_open_now`` overload counter in ``/stats`` stands in.
    """
    summary = {"closed": 0, "open": 0, "half_open": 0}
    live = set(members)
    for actor in cluster.actors.values():
        for peer, breaker in actor._breakers.items():
            if peer not in live:
                continue
            if breaker.state == breaker.CLOSED:
                summary["closed"] += 1
            elif breaker.state == breaker.OPEN:
                summary["open"] += 1
            else:
                summary["half_open"] += 1
    return summary


def _recovery_section(cluster) -> dict:
    """The failure detector's view, or why there is none.

    ``state`` is ``"active"`` when a detector loop is armed,
    ``"unavailable (sharded)"`` on a multi-process cluster (where
    :meth:`~repro.runtime.shard.ShardedCluster.enable_recovery` raises
    a typed ``NotSupportedError`` -- surfaced here instead of as a
    500), and ``"disabled"`` otherwise.
    """
    recovery = cluster.recovery
    if recovery is not None:
        return {
            "state": "active",
            "rounds": int(recovery.rounds),
            "suspected": {
                str(node): int(rounds)
                for node, rounds in sorted(recovery.suspected.items())
            },
            "confirmed_dead": [int(n) for n in recovery.confirmed_dead],
            "false_kills": int(recovery.false_kills),
            "refutations": int(recovery.refutations),
            "shielded_verdicts": int(recovery.shielded_verdicts),
        }
    return {
        "state": "unavailable (sharded)" if cluster.config.shards > 1 else "disabled",
        "rounds": 0,
        "suspected": {},
        "confirmed_dead": [],
        "false_kills": 0,
        "refutations": 0,
        "shielded_verdicts": 0,
    }


def health_snapshot(cluster) -> dict:
    """Per-node SWIM verdicts, breaker states and the invariant check.

    The overall ``status`` is three-valued:

    * ``healthy`` -- every member answers for itself (live actor, no
      suspicion), no active partition, no open breaker, and
      :func:`~repro.core.recovery.check_invariants` holds;
    * ``degraded`` -- a *known, in-progress* disturbance: a member
      whose process is gone but whose zones are not yet repaired, a
      pending suspicion, an active partition window, or an open
      circuit breaker.  Invariants may transiently fail here (a corpse
      still holds its zone) -- that is the repair pipeline working,
      not a lie in the state;
    * ``unhealthy`` -- no live member at all, or the invariant check
      fails with *no* disturbance that explains it (silent
      corruption: the legitimacy detector of the self-stabilization
      story).
    """
    can = cluster.overlay.ecan.can
    members = sorted(int(n) for n in can.nodes)
    recovery = cluster.recovery
    verdicts = detector_verdicts(recovery, members)
    for node_id in members:
        if verdicts[node_id] == "alive" and not cluster.is_up(node_id):
            verdicts[node_id] = "down"

    domains = cluster.network.topology.transit_domain
    nodes = [
        {
            "id": node_id,
            "host": int(can.nodes[node_id].host),
            "domain": int(domains[int(can.nodes[node_id].host)]),
            "shard": int(cluster.shard_of(node_id)),
            "verdict": verdicts[node_id],
        }
        for node_id in members
    ]

    faults = cluster.network.faults
    partitions = (
        len(faults.active_partitions()) if faults is not None and faults.armed else 0
    )
    breakers = _breaker_summary(cluster, members)
    live = sum(1 for node_id in members if verdicts[node_id] == "alive")
    disturbed = (
        live < len(members)
        or (recovery is not None and bool(recovery.suspected))
        or partitions > 0
        or breakers["open"] > 0
        or breakers["half_open"] > 0
    )

    try:
        summary = check_invariants(cluster.overlay, detector=recovery)
    except AssertionError as exc:
        invariants = {"ok": False, "checked": True, "error": str(exc)}
    except Exception as exc:  # torn mid-repair state must not 500
        invariants = {"ok": False, "checked": True, "error": repr(exc)}
    else:
        invariants = {"ok": True, "checked": True, **summary}

    if live == 0:
        status = "unhealthy"
    elif disturbed:
        status = "degraded"
    elif invariants["ok"] is False:
        status = "unhealthy"
    else:
        status = "healthy"

    return {
        "schema_version": HEALTH_SCHEMA_VERSION,
        "status": status,
        "members": len(members),
        "live": live,
        "nodes": nodes,
        "recovery": _recovery_section(cluster),
        "breakers": breakers,
        "partitions_active": partitions,
        "crashed_unrepaired": sorted(
            int(n) for n in cluster.crashed if n in can.nodes
        ),
        "invariants": invariants,
    }
