"""§6 extension: trading proximity against load.

"Nodes that are situated close to routers and gateways tend to have
better forwarding capacity than other nodes...  To better balance the
traffic based on each node's capacity and current load, a node
periodically publishes these statistics along with its proximity
information."

This module provides the pieces the paper sketches:

* heterogeneous capacities (:func:`pareto_capacities`),
* a :class:`LoadTracker` that accumulates per-node forwarding load
  from routed messages and periodically publishes it into the
  soft-state,
* overload subscriptions: a node can subscribe to
  ``Condition.load_above`` on its chosen neighbor and re-select when
  the neighbor saturates.

The load-aware *selection* itself lives in
:class:`~repro.softstate.neighbor_selection.SoftStateNeighborPolicy`
(``load_weight > 0`` scores candidates by RTT inflated by published
utilization).
"""

from __future__ import annotations

import numpy as np

from repro.softstate.maps import Region
from repro.softstate.pubsub import Condition


def pareto_capacities(
    rng: np.random.Generator, n: int, alpha: float = 1.5
) -> np.ndarray:
    """Heavy-tailed forwarding capacities (few strong, many weak nodes),
    each at least 1."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return 1.0 + rng.pareto(alpha, size=n)


class LoadTracker:
    """Accumulates forwarding load and publishes it as soft-state."""

    def __init__(self, overlay, window: float = 1.0):
        self.overlay = overlay
        self.window = window
        self._forwarded: dict = {}

    def record_route(self, result) -> None:
        """Charge one unit of forwarding load to each relay on a path."""
        for node_id in result.path[1:-1]:
            self._forwarded[node_id] = self._forwarded.get(node_id, 0) + 1

    def load_of(self, node_id: int) -> float:
        return self._forwarded.get(node_id, 0) / self.window

    def utilization(self) -> dict:
        """Current load/capacity ratio per node."""
        registry = self.overlay.store.registry
        out = {}
        for node_id, count in self._forwarded.items():
            record = registry.get(node_id)
            capacity = record.capacity if record is not None else 1.0
            out[node_id] = (count / self.window) / max(capacity, 1e-9)
        return out

    def publish_all(self) -> int:
        """Push every node's current load into the soft-state maps."""
        published = 0
        for node_id in list(self.overlay.ecan.can.nodes):
            if node_id in self.overlay.store.registry:
                self.overlay.store.update_load(node_id, self.load_of(node_id))
                published += 1
        return published

    def reset_window(self) -> None:
        self._forwarded.clear()


def subscribe_overload_watch(
    overlay, node_id: int, threshold: float = 0.8
) -> list:
    """Watch every current table entry for overload; re-select on alarm.

    Implements the paper's QoS example: "the selected neighbor is
    handling 80% of its maximum capacity -> start a new round of
    neighbor selection".  Returns the subscription ids installed.
    """
    subs = []
    table = overlay.ecan.table_of(node_id)
    for level, row in table.items():
        for cell, entry in row.items():
            condition = Condition.load_above(threshold, node_id=entry)

            def reselect(subscription, event, _level=level, _cell=cell):
                if subscription.subscriber in overlay.ecan.can.nodes:
                    overlay.ecan.refresh_entry(subscription.subscriber, _level, _cell)

            subs.append(
                overlay.pubsub.subscribe(
                    node_id, Region(level, cell), condition, callback=reselect
                )
            )
    return subs
