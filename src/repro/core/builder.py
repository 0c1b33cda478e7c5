"""Assembly of the full topology-aware overlay.

:class:`TopologyAwareOverlay` is the library's main entry point.  It
owns one :class:`~repro.netsim.network.Network`, a landmark space, an
eCAN, the global soft-state store, the publish/subscribe service and
a maintenance driver, and exposes the paper's lifecycle:

* ``build(n)`` -- grow the overlay to ``n`` nodes, each join doing:
  landmark measurement, CAN join, soft-state publication, and
  policy-driven high-order neighbor selection;
* ``route_between`` / ``measure_stretch`` -- the evaluation workload:
  route between random member pairs and compare accumulated physical
  latency against the direct shortest path;
* ``remove_node`` / ``add_node`` -- churn, graceful or not;
* ``enable_adaptive(node)`` -- the pub/sub loop: subscribe to the
  regions behind the node's expressway entries and re-select when a
  closer candidate appears.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.core.config import OverlayParams
from repro.core.reliability import RetryPolicy, measure_vector_reliably
from repro.overlay.ecan import EcanOverlay
from repro.overlay.routing import (
    ClosestNeighborPolicy,
    RandomNeighborPolicy,
    sample_stretch,
)
from repro.softstate.maintenance import MaintenanceDriver, MaintenancePolicy
from repro.softstate.maps import Region
from repro.softstate.neighbor_selection import SoftStateNeighborPolicy
from repro.softstate.pubsub import Condition, PubSubService
from repro.softstate.store import SoftStateStore
from repro.proximity.landmarks import LandmarkSpace, select_landmarks


class TopologyAwareOverlay:
    """The paper's system: eCAN + landmarks + global soft-state."""

    def __init__(
        self,
        network,
        params: OverlayParams = None,
        maintenance_policy: MaintenancePolicy = MaintenancePolicy.PROACTIVE,
        retry_policy: RetryPolicy = None,
    ):
        self.network = network
        self.params = params if params is not None else OverlayParams()
        #: RetryPolicy shared by routing, probing and maintenance; None
        #: keeps every layer fire-and-forget (the pre-fault baseline)
        self.retry_policy = retry_policy
        # Independent streams so that changing the landmark count or the
        # policy does not reshuffle overlay membership or join points --
        # experiment cells with the same seed stay comparable.
        seeds = np.random.SeedSequence(self.params.seed).spawn(4)
        self.rng = np.random.default_rng(seeds[0])
        self._host_rng = np.random.default_rng(seeds[1])
        landmark_rng = np.random.default_rng(seeds[2])
        self._policy_rng = np.random.default_rng(seeds[3])
        self.stats = network.stats

        landmarks = select_landmarks(network, self.params.landmarks, landmark_rng)
        self.space = LandmarkSpace(landmarks)
        self.ecan = EcanOverlay(
            rng=self.rng,
            stats=self.stats,
            network=network,
            retry_policy=retry_policy,
        )
        self.store = SoftStateStore(
            self.ecan,
            network,
            self.space,
            condense_rate=self.params.condense_rate,
            record_ttl=self.params.record_ttl,
            replication_factor=self.params.replication_factor,
        )
        self.pubsub = PubSubService(self.store, self.ecan, network)
        self.maintenance = MaintenanceDriver(
            self.store,
            self.ecan,
            network,
            policy=maintenance_policy,
            retry_policy=retry_policy,
        )
        self.ecan.policy = self._make_policy(self.params.policy)
        self._ids = itertools.count()
        self._refresh_timer = None
        # Landmarks "can be part of the overlay itself or standalone"
        # (§5.1); letting them host members keeps overlay membership a
        # pure function of the host stream, independent of landmark count.
        self._used_hosts: set = set()
        self._adaptive: set = set()
        #: armed by :meth:`enable_recovery`
        self.detector = None
        self.recovery = None

    # -- fault injection -------------------------------------------------------

    def arm_faults(self, plan=None, seed: int = 0):
        """Arm a fault plan over the underlying network.

        Returns the :class:`~repro.netsim.faults.FaultInjector`.
        Ungraceful departures now also crash-stop the victim's host
        (probes to it time out) and hosts are revived on reuse.
        """
        return self.network.arm_faults(plan, seed=seed)

    def disarm_faults(self) -> None:
        self.network.disarm_faults()

    def _make_policy(self, name: str):
        if name == "random":
            return RandomNeighborPolicy(self._policy_rng)
        if name == "optimal":
            return ClosestNeighborPolicy(self.network)
        if name == "softstate":
            return SoftStateNeighborPolicy(
                self.store,
                self.network,
                rtt_budget=self.params.rtt_budget,
                load_weight=self.params.load_weight,
                maintenance=self.maintenance,
                retry_policy=self.retry_policy,
            )
        raise ValueError(f"unknown policy {name!r}")

    # -- membership -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.ecan)

    @property
    def node_ids(self) -> list:
        return list(self.ecan.can.nodes)

    def _pick_host(self) -> int:
        pool = self.network.topology.stub_nodes()
        for _ in range(64):
            host = int(pool[int(self._host_rng.integers(0, len(pool)))])
            if host not in self._used_hosts:
                return host
        free = [int(h) for h in pool if int(h) not in self._used_hosts]
        if not free:
            # more overlay nodes than stub hosts: co-host virtual nodes
            # on a uniformly drawn stub (the paper's 4096-node overlays
            # on smaller topologies need this)
            return int(pool[int(self._host_rng.integers(0, len(pool)))])
        return free[int(self._host_rng.integers(0, len(free)))]

    def _admit(self, capacity: float) -> int:
        """What every join starts with, one at a time or in bulk: draw a
        host and the next id, measure the landmark vector, join the CAN
        and register the identity.  Publishing and the expressway table
        are the caller's, now or batched."""
        host = self._pick_host()
        self._used_hosts.add(host)
        node_id = next(self._ids)
        if self.network.faults is not None:
            # a fresh process on this host: it answers probes again
            self.network.faults.revive_host(host)
            vector = measure_vector_reliably(
                self.network,
                self.space.landmarks,
                host,
                policy=self.retry_policy or RetryPolicy(),
            )
        else:
            vector = self.space.measure(self.network, host)
        self.ecan.can.join(node_id, host)
        self.store.register_identity(node_id, host, vector, capacity=capacity)
        return node_id

    def add_node(self, capacity: float = 1.0) -> int:
        """Join one node: measure landmarks, join CAN, publish, select."""
        node_id = self._admit(capacity)
        self.store.publish(node_id)
        self.ecan.build_table(node_id)
        return node_id

    def build(self, num_nodes: int = None) -> list:
        """Grow the overlay to ``num_nodes`` members; returns their ids."""
        if num_nodes is None:
            num_nodes = self.params.num_nodes
        with self.network.telemetry.phase("overlay_build"):
            return [self.add_node() for _ in range(num_nodes - len(self))]

    def build_bulk(self, num_nodes: int = None) -> list:
        """Batched bulk-join fast path; returns the ids added.

        :meth:`build` republishes the split owner's record on every
        zone change, so growing to N members costs O(N) incremental
        republish cascades against throw-away intermediate
        tessellations -- the reason joins/s *drops* as N grows.  Bulk
        mode defers those republishes behind
        :meth:`~repro.softstate.store.SoftStateStore.bulk_load`:
        all members join the CAN first, then each publishes exactly
        once against the final tessellation and builds its expressway
        table.  Membership, hosts and zones are identical to
        :meth:`build` for the same seed (the host and join-point
        streams are consumed in the same order).  The expressway
        tables are the ones :meth:`build` followed by one
        ``build_table`` round over every member gives (for the
        soft-state and oracle policies): selection sees the final
        maps, where :meth:`build` leaves each table as it was chosen
        at join time.  Intended for large soak and runtime boots.
        """
        if num_nodes is None:
            num_nodes = self.params.num_nodes
        added = []
        with self.network.telemetry.phase("overlay_build_bulk"):
            with self.store.bulk_load() as dirty:
                for _ in range(num_nodes - len(self)):
                    node_id = self._admit(1.0)
                    dirty.add(node_id)
                    added.append(node_id)
            for node_id in added:
                self.ecan.build_table(node_id)
        return added

    def remove_node(self, node_id: int, graceful: bool = True) -> None:
        """Depart (gracefully announces; otherwise records go stale)."""
        node = self.ecan.can.nodes.get(node_id)
        if node is None:
            raise KeyError(f"node {node_id} is not a member")
        self._used_hosts.discard(node.host)
        self._adaptive.discard(node_id)
        self.pubsub.unsubscribe_all(node_id)
        self.maintenance.on_departure(node_id, graceful=graceful)
        if not graceful and self.network.faults is not None:
            # crash-stop: the process is gone, the host answers nothing
            self.network.faults.crash_host(node.host)
        self.ecan.leave(node_id)

    def crash_node(self, node_id: int) -> dict:
        """Crash-stop ``node_id`` with *no* immediate repair.

        Unlike ``remove_node(graceful=False)`` -- which still runs the
        instantaneous takeover (the pre-recovery modelling shortcut) --
        a crashed node stays a member with orphaned zones and stale
        soft-state until the failure detector confirms its death and
        :class:`~repro.core.recovery.RecoveryManager` repairs it.  The
        host stops answering, and every map copy it hosted vanishes
        with the process (records whose copies all died are *lost*
        until their subjects re-publish).  Returns the copy-loss
        summary ``{"salvageable": ..., "lost": ...}``.
        """
        node = self.ecan.can.nodes.get(node_id)
        if node is None:
            raise KeyError(f"node {node_id} is not a member")
        faults = self.network.faults
        if faults is None:
            raise RuntimeError(
                "crash_node needs armed faults (arm_faults); "
                "use remove_node(graceful=False) for the instant-takeover model"
            )
        faults.crash_host(node.host)
        salvageable, lost = self.store.drop_hosted_by(node_id)
        self.network.telemetry.count("crash")
        return {"salvageable": len(salvageable), "lost": len(lost)}

    def enable_recovery(self, detector_params=None):
        """Arm the self-healing stack: failure detection, crash
        takeover, re-replication and partition-heal reconciliation.

        Idempotent; returns the :class:`~repro.core.recovery.RecoveryManager`.
        """
        if self.recovery is not None:
            return self.recovery
        from repro.core.recovery import FailureDetector, RecoveryManager

        self.detector = FailureDetector(self, detector_params, seed=0xFD)
        self.recovery = RecoveryManager(self, self.detector)
        self.detector.start()
        self.recovery.watch_partitions()
        return self.recovery

    def disable_recovery(self) -> None:
        if self.detector is not None:
            self.detector.stop()
        self.detector = None
        self.recovery = None

    def random_member(self) -> int:
        return self.ecan.can.random_node()

    # -- routing & stretch -------------------------------------------------------

    def route_between(self, src_id: int, dst_id: int):
        """Route src -> dst; returns (RouteResult, stretch or None).

        Stretch is :meth:`~repro.overlay.routing.RouteResult.stretch`:
        accumulated path latency over the direct shortest-path latency,
        ``None`` when the pair is degenerate (zero direct latency) or
        routing failed.
        """
        nodes = self.ecan.can.nodes
        point = nodes[dst_id].zone.center()
        result = self.ecan.route(src_id, point, category="lookup_route")
        return result, result.stretch(nodes, self.network)

    def prewarm_latencies(self) -> int:
        """Bulk-populate the oracle's row cache for member hosts (free).

        One multi-source Dijkstra replaces per-pair cache misses during
        stretch measurement; purely an oracle-side warm-up -- nothing
        is charged and no overlay state changes.  Returns the number of
        hosts warmed.
        """
        hosts = sorted({int(node.host) for node in self.ecan.can.nodes.values()})
        self.network.oracle.rows(hosts)
        return len(hosts)

    def measure_stretch(self, samples: int = None, rng=None) -> np.ndarray:
        """Stretch over random member pairs (paper default: 2N routes)."""
        if samples is None:
            samples = 2 * len(self)
        self.prewarm_latencies()
        with self.network.telemetry.phase("routing"):
            return sample_stretch(
                self.node_ids,
                samples,
                self.rng if rng is None else rng,
                lambda src, dst: self.route_between(src, dst)[1],
            )

    # -- soft-state refresh ----------------------------------------------------------

    def start_refresh(self, interval: float = None) -> None:
        """Arm the periodic soft-state refresh loop.

        Soft-state only stays alive while its owner keeps republishing
        (records carry a ``record_ttl`` lease).  Each tick, every live
        member refreshes its record (charged as publish traffic) and
        lapsed leases are purged.  Defaults to half the lease so a
        healthy node never expires.
        """
        if self._refresh_timer is not None:
            return
        if interval is None:
            if not np.isfinite(self.params.record_ttl):
                raise ValueError(
                    "refresh needs an interval when record_ttl is infinite"
                )
            interval = self.params.record_ttl / 2.0

        def tick():
            for node_id in list(self.ecan.can.nodes):
                if node_id in self.store.registry:
                    self.store.publish(node_id)
            self.store.expire_stale()

        self._refresh_timer = self.network.clock.schedule_every(interval, tick)

    def stop_refresh(self) -> None:
        if self._refresh_timer is not None:
            self._refresh_timer.cancel()
            self._refresh_timer = None

    # -- adaptive re-selection via pub/sub --------------------------------------------

    def enable_adaptive(self, node_id: int) -> int:
        """Subscribe ``node_id`` to the regions behind its table entries.

        Whenever a candidate joins one of those regions closer (in
        landmark space) than the current representative, the entry is
        re-selected through the policy.  Returns the number of
        subscriptions installed.
        """
        if node_id in self._adaptive:
            return 0
        own = self.store.registry.get(node_id)
        if own is None:
            raise KeyError(f"node {node_id} has no identity record")
        own_vector = np.asarray(own.landmark_vector)
        installed = 0
        zone = self.ecan.can.nodes[node_id].zone
        from repro.overlay.zone import sibling_cells

        for level in range(1, zone.max_level + 1):
            for cell in sibling_cells(zone.cell(level)):
                # table_entry fills the slot lazily if this node joined
                # before its zone reached this depth
                entry, _ = self.ecan.table_entry(node_id, level, cell)
                current = None if entry is None else self.store.registry.get(entry)
                if current is None:
                    threshold = float("inf")
                else:
                    threshold = float(
                        np.linalg.norm(
                            np.asarray(current.landmark_vector) - own_vector
                        )
                    )
                condition = Condition.node_joined(
                    vector=own.landmark_vector, within_distance=threshold
                )
                self.pubsub.subscribe(
                    node_id,
                    Region(level, cell),
                    condition,
                    callback=self._on_closer_candidate,
                )
                installed += 1
        self._adaptive.add(node_id)
        return installed

    def _on_closer_candidate(self, subscription, event) -> None:
        node_id = subscription.subscriber
        if node_id not in self.ecan.can.nodes:
            return
        self.ecan.refresh_entry(
            node_id, subscription.region.level, subscription.region.cell
        )

    # -- diagnostics ---------------------------------------------------------------------

    def describe(self) -> dict:
        """One-line summary used by examples and experiment logs."""
        return {
            "nodes": len(self),
            "policy": self.ecan.policy.name,
            "landmarks": self.space.landmarks.count,
            "condense_rate": self.store.condense_rate,
            "map_entries": self.store.total_entries(),
            "subscriptions": self.pubsub.subscription_count(),
        }
