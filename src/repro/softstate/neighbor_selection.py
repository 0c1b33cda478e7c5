"""Proximity-neighbor selection through the global soft-state.

This policy is the paper's payoff: when an eCAN node needs a
high-order neighbor for a sibling zone, it

1. looks the sibling zone's map up under its own landmark number
   (charged overlay routing),
2. receives the ``X`` records closest to it in landmark space,
3. RTT-probes up to ``rtt_budget`` of them (charged probes), and
4. picks the one with the smallest measured RTT.

The optional load-aware variant (§6) scores candidates by RTT
inflated by their published utilization, trading network distance for
forwarding headroom.

Re-entrancy: a lookup routes through the overlay, routing may repair
a table entry, and repairing runs this policy again.  The recursion
is cut by falling back to a random candidate while a selection is
already in progress (the bootstrap pick; it gets refined the next
time the entry is rebuilt).
"""

from __future__ import annotations

import numpy as np

from repro.netsim.faults import ProbeTimeout
from repro.overlay.ecan import NeighborPolicy
from repro.softstate.maps import Region
from repro.softstate.store import SoftStateStore


class SoftStateNeighborPolicy(NeighborPolicy):
    """Landmark-guided, RTT-confirmed high-order neighbor choice."""

    name = "softstate"

    def __init__(
        self,
        store: SoftStateStore,
        network,
        rtt_budget: int = 10,
        load_weight: float = 0.0,
        maintenance=None,
        retry_policy=None,
    ):
        self.store = store
        self.network = network
        self.rtt_budget = rtt_budget
        #: 0 = pure proximity; >0 = §6 load-aware scoring
        self.load_weight = load_weight
        #: optional MaintenanceDriver told about dead records (reactive)
        self.maintenance = maintenance
        #: optional RetryPolicy for confirmation probes under faults
        self.retry_policy = retry_policy
        self._selecting = False

    def select(self, ecan, node_id, level, cell, candidates):
        if self._selecting:
            return None  # bootstrap fallback; see module docstring
        own = self.store.registry.get(node_id)
        if own is None:
            return None
        self._selecting = True
        try:
            # no explicit query_vector: the default path uses the same
            # registered vector plus the identity's cached landmark
            # number, skipping a re-encode per selection
            result = self.store.lookup(
                node_id,
                Region(level, cell),
                max_results=max(self.rtt_budget, 1),
            )
        finally:
            self._selecting = False

        alive = []
        for record in result.records:
            if record.node_id == node_id:
                continue
            if record.node_id in ecan.can.nodes:
                alive.append(record)
            else:
                # a stale record costs a timed-out probe before the node
                # is discovered dead -- the price of lazy maintenance
                self.network.stats.count("neighbor_probe_failed")
                if self.maintenance is not None:
                    self.maintenance.on_failed_use(record.node_id)
        if not alive:
            return None

        host = ecan.can.nodes[node_id].host
        probed = alive[: self.rtt_budget]
        network = self.network
        if network.faults is None and self.retry_policy is None:
            # nothing can be lost or retried per probe: one batch
            # charges the same count and reads the same float64 RTTs
            rtts = network.rtt_list(
                host, [record.host for record in probed], category="neighbor_probe"
            )
        else:
            rtts = [self._probe(host, record.host) for record in probed]
        best = None
        for record, rtt in zip(probed, rtts):
            if rtt is None:
                continue
            score = rtt
            if self.load_weight > 0:
                score = rtt * (1.0 + self.load_weight * min(record.utilization, 10.0))
            if best is None or (score, record.node_id) < best:
                best = (score, record.node_id)
        if best is None:
            # every confirmation probe timed out: degrade to landmark-only
            # ranking (the lookup already sorted by landmark distance)
            return alive[0].node_id
        return best[1]

    def _probe(self, host: int, target: int):
        """One confirmation probe; None when it timed out."""
        try:
            if self.retry_policy is not None:
                return self.retry_policy.probe(
                    self.network, host, target, category="neighbor_probe"
                )
            return self.network.rtt(host, target, category="neighbor_probe")
        except ProbeTimeout:
            # candidate unconfirmable right now; skip rather than stall
            self.network.stats.count("neighbor_probe_timeout")
            return None


def probe_and_pick(network, host: int, records, budget: int):
    """Standalone landmark+RTT confirmation over ``records``.

    Shared helper for callers outside table construction (e.g. the
    nearest-replica example): probes up to ``budget`` records and
    returns ``(record, rtt)`` of the closest, or ``(None, inf)``.
    """
    best = (None, np.inf)
    for record in records[:budget]:
        rtt = network.rtt(host, record.host, category="neighbor_probe")
        if rtt < best[1]:
            best = (record, rtt)
    return best
