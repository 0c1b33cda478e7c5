"""Diagnostics: where does the stretch come from?

Three introspection helpers used by the docs, the examples and
curious users:

* :func:`hop_latency_profile` -- mean physical latency per hop index
  over a route sample.  Shows the characteristic proximity-selection
  signature: early (high-choice) hops are short, terminal hops are
  not -- and explains why base-4 hierarchies (eCAN, Pastry) benefit
  more than a binary Chord ring.
* :func:`table_quality` -- per-level ratio between the latency of the
  installed expressway entry and the best possible member of that
  cell; 1.0 everywhere means the oracle.
* :func:`map_placement_report` -- how the soft-state maps are spread
  over hosting nodes per region level (the condense-rate trade-off in
  numbers).
"""

from __future__ import annotations

import numpy as np


#: hops past this one are left out of :func:`hop_latency_profile`
PROFILE_HOPS = 12


def hop_latency_profile(overlay, samples: int = 200) -> list:
    """Mean latency of the k-th hop across sampled routes.

    Works on a :class:`~repro.core.builder.TopologyAwareOverlay`; the
    route pairs are drawn from a generator seeded with 0.  Returns rows
    ``{"hop", "mean_latency_ms", "count"}`` for the first
    :data:`PROFILE_HOPS` hops.
    """
    rng = np.random.default_rng(0)
    network = overlay.network
    nodes = overlay.ecan.can.nodes
    totals = np.zeros(PROFILE_HOPS)
    counts = np.zeros(PROFILE_HOPS, dtype=np.int64)
    ids = np.array(overlay.node_ids)
    for _ in range(samples):
        src, dst = rng.choice(ids, size=2, replace=False)
        result = overlay.ecan.route(int(src), nodes[int(dst)].zone.center())
        if not result.success:
            continue
        hosts = [nodes[n].host for n in result.path]
        for k, (a, b) in enumerate(zip(hosts, hosts[1:])):
            if k >= PROFILE_HOPS:
                break
            totals[k] += network.latency(a, b)
            counts[k] += 1
    return [
        {
            "hop": k + 1,
            "mean_latency_ms": float(totals[k] / counts[k]) if counts[k] else None,
            "count": int(counts[k]),
        }
        for k in range(PROFILE_HOPS)
        if counts[k]
    ]


def table_quality(overlay, max_nodes: int = None) -> list:
    """Per-level expressway entry quality vs the cell's best member.

    Rows: ``{"level", "mean_ratio", "entries"}`` where ratio 1.0 means
    the installed representative is the physically closest member.
    """
    network = overlay.network
    ecan = overlay.ecan
    sums: dict = {}
    counts: dict = {}
    node_ids = overlay.node_ids if max_nodes is None else overlay.node_ids[:max_nodes]
    for node_id in node_ids:
        node = ecan.can.nodes[node_id]
        for level, row in ecan.table_of(node_id).items():
            for cell, entry in row.items():
                members = ecan.members(level, cell, exclude=node_id)
                if entry not in members or not members:
                    continue
                best = min(
                    network.latency(node.host, ecan.can.nodes[m].host)
                    for m in members
                )
                got = network.latency(node.host, ecan.can.nodes[entry].host)
                ratio = 1.0 if best <= 0 else got / best
                sums[level] = sums.get(level, 0.0) + ratio
                counts[level] = counts.get(level, 0) + 1
    return [
        {
            "level": level,
            "mean_ratio": sums[level] / counts[level],
            "entries": counts[level],
        }
        for level in sorted(sums)
    ]


def map_placement_report(store) -> list:
    """Hosting spread of the proximity maps, per region level.

    Rows: ``{"level", "regions", "entries", "hosting_nodes",
    "max_entries_one_node"}``.
    """
    per_level: dict = {}
    for region, bucket in store.maps.items():
        level = region.level
        stats = per_level.setdefault(
            level, {"regions": 0, "entries": 0, "hosts": {}}
        )
        stats["regions"] += 1
        stats["entries"] += len(bucket)
        for stored in bucket.values():
            owner = store.ecan.can.owner_of_point(stored.position)
            stats["hosts"][owner] = stats["hosts"].get(owner, 0) + 1
    return [
        {
            "level": level,
            "regions": stats["regions"],
            "entries": stats["entries"],
            "hosting_nodes": len(stats["hosts"]),
            "max_entries_one_node": max(stats["hosts"].values(), default=0),
        }
        for level, stats in sorted(per_level.items())
    ]
