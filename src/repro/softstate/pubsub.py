"""Publish/subscribe over the global soft-state.

A node subscribes to the map of a region it depends on and states the
condition under which it wants to hear about changes ("notify me when
more nodes have joined the zone", "when my neighbor's load exceeds
80% of capacity", "when a candidate closer than my current neighbor
appears").  When a map mutation matches, the notification is
disseminated through a *distribution tree embedded in the overlay*:
the union of the overlay routing paths from the rendezvous (the node
hosting the mutated record) to each matching subscriber.  The cost of
a delivery is therefore the number of distinct tree edges, not the
sum of path lengths -- sharing is the point of the tree.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from repro.softstate.maps import Region
from repro.softstate.store import EventKind, MapEvent, SoftStateStore


@dataclass(frozen=True)
class Condition:
    """Predicate over map events.

    Attributes
    ----------
    kinds:
        Event kinds of interest.
    node_id:
        If set, only events about this specific node match.
    utilization_above:
        For load events: match when ``load / capacity`` exceeds this.
    vector / within_distance:
        For join events: match when the new record's landmark vector
        lies within ``within_distance`` of ``vector`` (a "candidate
        possibly closer than my current neighbor" trigger).
    """

    kinds: tuple
    node_id: int = None
    utilization_above: float = None
    vector: tuple = None
    within_distance: float = None

    @classmethod
    def node_joined(cls, vector=None, within_distance: float = None) -> "Condition":
        vec = None if vector is None else tuple(float(x) for x in vector)
        return cls(
            kinds=(EventKind.NODE_JOINED,), vector=vec, within_distance=within_distance
        )

    @classmethod
    def node_left(cls, node_id: int = None) -> "Condition":
        return cls(
            kinds=(EventKind.NODE_LEFT, EventKind.RECORD_EXPIRED), node_id=node_id
        )

    @classmethod
    def load_above(cls, threshold: float, node_id: int = None) -> "Condition":
        return cls(
            kinds=(EventKind.LOAD_UPDATED,),
            node_id=node_id,
            utilization_above=threshold,
        )

    def matches(self, event: MapEvent) -> bool:
        if event.kind not in self.kinds:
            return False
        if self.node_id is not None and event.record.node_id != self.node_id:
            return False
        if self.utilization_above is not None:
            if not event.record.utilization > self.utilization_above:
                return False
        if self.vector is not None and self.within_distance is not None:
            gap = float(
                np.linalg.norm(
                    np.asarray(event.record.landmark_vector) - np.asarray(self.vector)
                )
            )
            if gap > self.within_distance:
                return False
        return True


@dataclass
class Subscription:
    sub_id: int
    subscriber: int
    region: Region
    condition: Condition
    callback: object = field(repr=False, default=None)


@dataclass
class DeliveryReport:
    """Accounting for one notification fan-out.

    ``subscribers`` is every matching subscriber; ``delivered`` the
    ones whose tree path completed (each acknowledged back to the
    rendezvous, charged as ``pubsub_ack``); ``failed`` the ones whose
    path broke -- those are *not* counted as delivered, and the next
    reconciliation's :meth:`PubSubService.resync_once` re-syncs them.
    """

    event: MapEvent
    subscribers: list
    tree_edges: int
    delivered: list = field(default_factory=list)
    failed: list = field(default_factory=list)

    @property
    def complete(self) -> bool:
        return not self.failed


class PubSubService:
    """Subscription registry + tree-based notification delivery."""

    def __init__(self, store: SoftStateStore, ecan, network):
        self.store = store
        self.ecan = ecan
        self.network = network
        self._by_region: dict = {}
        self._by_id: dict = {}
        self._ids = itertools.count(1)
        self.deliveries: list = []
        #: set False to suspend delivery (e.g. while bulk-building)
        self.enabled = True
        #: subscriber -> [(Subscription, MapEvent)] awaiting re-sync
        self._missed: dict = {}
        #: notifications recovered by anti-entropy so far
        self.resynced = 0
        store.hooks.append(self._on_event)

    # -- subscription management ----------------------------------------------

    def subscribe(
        self, subscriber: int, region: Region, condition: Condition, callback=None
    ) -> int:
        """Register interest; charged as one overlay route to the map."""
        record = self.store.registry.get(subscriber)
        if record is not None and subscriber in self.ecan.can.nodes:
            position = self.store.position_of(record, region)
            self.ecan.route(subscriber, position, category="pubsub_subscribe")
        else:
            self.network.stats.count("pubsub_subscribe")
        sub = Subscription(
            sub_id=next(self._ids),
            subscriber=subscriber,
            region=region,
            condition=condition,
            callback=callback,
        )
        self._by_region.setdefault(region, []).append(sub)
        self._by_id[sub.sub_id] = sub
        return sub.sub_id

    def unsubscribe(self, sub_id: int) -> bool:
        sub = self._by_id.pop(sub_id, None)
        if sub is None:
            return False
        bucket = self._by_region.get(sub.region, [])
        self._by_region[sub.region] = [s for s in bucket if s.sub_id != sub_id]
        if not self._by_region[sub.region]:
            del self._by_region[sub.region]
        self.network.stats.count("pubsub_unsubscribe")
        return True

    def unsubscribe_all(self, subscriber: int) -> int:
        """Drop every subscription held by ``subscriber``."""
        doomed = [s.sub_id for s in self._by_id.values() if s.subscriber == subscriber]
        for sub_id in doomed:
            self.unsubscribe(sub_id)
        return len(doomed)

    def subscriptions_of(self, subscriber: int) -> list:
        return [s for s in self._by_id.values() if s.subscriber == subscriber]

    def subscription_count(self) -> int:
        return len(self._by_id)

    # -- delivery -----------------------------------------------------------------

    def _on_event(self, event: MapEvent) -> None:
        if not self.enabled:
            return
        subs = self._by_region.get(event.region)
        if not subs:
            return
        matching = [
            s
            for s in subs
            if s.subscriber != event.record.node_id and s.condition.matches(event)
        ]
        # prune subscribers that have left the overlay
        matching = [s for s in matching if s.subscriber in self.ecan.can.nodes]
        if not matching:
            return
        rendezvous = self._rendezvous_of(event)
        edges, delivered, failed = self._deliver_tree(
            rendezvous, [s.subscriber for s in matching]
        )
        self.network.stats.count("pubsub_notify", edges)
        # each completed delivery is acknowledged back to the rendezvous
        self.network.stats.count("pubsub_ack", len(delivered))
        report = DeliveryReport(
            event=event,
            subscribers=[s.subscriber for s in matching],
            tree_edges=edges,
            delivered=delivered,
            failed=failed,
        )
        self.deliveries.append(report)
        missed = set(failed)
        for sub in matching:
            if sub.subscriber in missed:
                self._missed.setdefault(sub.subscriber, []).append((sub, event))
                continue
            if sub.callback is not None:
                sub.callback(sub, event)

    def _rendezvous_of(self, event: MapEvent) -> int:
        position = self.store.position_of(event.record, event.region)
        return self.ecan.can.owner_of_point(position)

    def _deliver_tree(self, rendezvous: int, subscribers) -> tuple:
        """Walk the notification tree; returns (edges, delivered, failed).

        The cost is the number of distinct overlay edges (sharing is
        the point of the tree).  A subscriber whose routing path broke
        is a *failed* delivery -- it is recorded as such (charged
        ``pubsub_notify_failed``), never fabricated as an edge, so
        resilience experiments can see notification loss.
        """
        edges = set()
        delivered, failed = [], []
        for subscriber in subscribers:
            if subscriber == rendezvous:
                delivered.append(subscriber)
                continue
            node = self.ecan.can.nodes.get(subscriber)
            if node is None:
                failed.append(subscriber)
                continue
            target = node.zone.center()
            result = self.ecan.route(rendezvous, target, category=None)
            if not result.success:
                failed.append(subscriber)
                self.network.stats.count("pubsub_notify_failed")
                continue
            delivered.append(subscriber)
            for a, b in zip(result.path, result.path[1:]):
                edges.add((a, b))
        return len(edges), delivered, failed

    # -- anti-entropy ----------------------------------------------------------

    def resync_once(self) -> int:
        """One anti-entropy round; returns notifications recovered."""
        recovered = 0
        for subscriber in list(self._missed):
            pending = self._missed.pop(subscriber, [])
            if subscriber not in self.ecan.can.nodes:
                continue  # subscriber left; its backlog dies with it
            still_missed = []
            for sub, event in pending:
                if sub.sub_id not in self._by_id:
                    continue  # unsubscribed in the meantime
                position = self.store.position_of(event.record, event.region)
                result = self.ecan.route(
                    subscriber, position, category="pubsub_resync"
                )
                if not result.success:
                    still_missed.append((sub, event))
                    continue
                recovered += 1
                self.resynced += 1
                if sub.callback is not None:
                    sub.callback(sub, event)
            if still_missed:
                self._missed[subscriber] = still_missed
        return recovered

    # -- diagnostics ---------------------------------------------------------------

    def missed_count(self) -> int:
        """Notifications currently awaiting anti-entropy re-sync."""
        return sum(len(pending) for pending in self._missed.values())
