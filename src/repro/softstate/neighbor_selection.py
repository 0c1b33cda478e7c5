"""Proximity-neighbor selection through the global soft-state.

This policy is the paper's payoff, and it serves every overlay: when a
node needs an entry for one of its table slots (an eCAN sibling zone,
a Chord finger, a Pastry ``(row, digit)``), it

1. looks the slot's map up under its own landmark number (charged
   overlay routing) -- its store's ``slot_records``,
2. receives the records closest to it in landmark space,
3. RTT-probes up to ``rtt_budget`` of them (charged probes), and
4. picks the one with the smallest measured RTT.

The optional load-aware variant (§6) scores candidates by RTT
inflated by their published utilization, trading network distance for
forwarding headroom.

Re-entrancy: a lookup routes through the overlay, routing may repair
a table entry, and repairing runs this policy again.  The recursion
is cut by declining while a selection is already in progress (the
overlay's bootstrap pick; it gets refined the next time the entry is
rebuilt).
"""

from __future__ import annotations

import numpy as np

from repro.netsim.faults import ProbeTimeout
from repro.overlay.routing import NeighborPolicy


class SoftStateNeighborPolicy(NeighborPolicy):
    """Landmark-guided, RTT-confirmed choice of a slot's entry.

    ``store`` is the overlay's soft-state -- a
    :class:`~repro.softstate.store.SoftStateStore` on eCAN, a
    :class:`~repro.softstate.ring.RingSoftState` on a ring -- and
    answers ``slot_records(node_id, slot, limit)``.
    """

    name = "softstate"

    def __init__(
        self,
        store,
        network,
        rtt_budget: int = 10,
        load_weight: float = 0.0,
        maintenance=None,
        retry_policy=None,
    ):
        if rtt_budget < 1:
            raise ValueError("rtt_budget must be >= 1")
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

    def select(self, overlay, node_id, slot, candidates):
        if self._selecting or node_id not in self.store.registry:
            return None  # bootstrap fallback; see module docstring
        self._selecting = True
        try:
            records = self.store.slot_records(node_id, slot, self.rtt_budget)
        finally:
            self._selecting = False

        nodes = overlay.nodes
        alive = [record for record in records if record.node_id in nodes]
        if len(alive) < len(records):
            for record in records:
                if record.node_id in nodes:
                    continue
                # a stale record costs a timed-out probe before the node
                # is discovered dead -- the price of lazy maintenance
                self.network.stats.count("neighbor_probe_failed")
                if self.maintenance is not None:
                    self.maintenance.on_failed_use(record.node_id)
        if not alive:
            return None

        host = nodes[node_id].host
        network = self.network
        if network.faults is None and self.retry_policy is None:
            # nothing can be lost or retried per probe: one batch
            # charges the same count and reads the same float64 RTTs
            rtts = network.rtt_list(
                host, [record.host for record in alive], category="neighbor_probe"
            )
        else:
            rtts = [self._probe(host, record.host) for record in alive]
        weight = self.load_weight
        scored = [
            (
                rtt * (1.0 + weight * min(record.utilization, 10.0))
                if weight > 0
                else rtt,
                record.node_id,
            )
            for record, rtt in zip(alive, rtts)
            if rtt is not None
        ]
        if not scored:
            # every confirmation probe timed out: degrade to landmark-only
            # ranking (the lookup already sorted by landmark distance)
            return alive[0].node_id
        return min(scored)[1]

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
