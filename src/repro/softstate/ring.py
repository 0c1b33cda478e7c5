"""Global soft-state on an id ring: the engine behind the Chord and Pastry ports.

On a ring the paper's placement hash degenerates pleasantly: a region
is an aligned id interval, and a landmark number is *scaled* directly
into the (condensed prefix of the) interval -- "use the landmark
number as the key", per the appendix.  Closeness in landmark number
then means closeness in ring position, so records of nearby nodes
co-locate on the same owner, exactly as on eCAN.

A node publishes its record into the map of every region that contains
its id, and a slot selection queries the region(s) covering the slot's
interval (:meth:`RingSoftState.slot_records`), ranks the returned
records by landmark-vector distance, and confirms the top few with RTT
probes -- the same
:class:`~repro.softstate.neighbor_selection.SoftStateNeighborPolicy`
eCAN uses.

A port subclasses :class:`RingSoftState` and supplies its region
geometry: ``regions_of`` (the regions a node publishes into),
``region_bounds`` (a region's id interval) and ``slot_regions`` (which
region(s) a slot selection queries).  Together with the ring's
``slot_interval`` and ``route`` that is the whole port.
"""

from __future__ import annotations

import numpy as np

from repro.overlay.ring import IdRing, in_interval
from repro.overlay.routing import (
    ClosestNeighborPolicy,
    NeighborPolicy,
    RandomNeighborPolicy,
)
from repro.proximity.landmarks import LandmarkSpace, select_landmarks
from repro.softstate.neighbor_selection import SoftStateNeighborPolicy
from repro.softstate.records import NodeRecord


class RingSoftState:
    """Publish / lookup proximity records over the ring's regions."""

    def __init__(self, ring: IdRing, network, space,
                 condense_rate: float = 1.0 / 16.0, max_results: int = 16):
        self.ring = ring
        self.network = network
        self.space = space  # LandmarkSpace
        self.condense_rate = condense_rate
        self.max_results = max_results
        self.registry: dict = {}
        #: region -> {node id -> (record, map key)}
        self.maps: dict = {}
        ring.observers.append(self._on_ring_event)

    def _on_ring_event(self, event: str, node_id: int) -> None:
        if event == "leave":
            self.withdraw(node_id, charge=False)

    # -- geometry, supplied by the port --------------------------------------

    def regions_of(self, node_id: int) -> list:
        """Regions containing ``node_id``, coarsest first."""
        raise NotImplementedError

    def region_bounds(self, region) -> tuple:
        """The id interval ``[lo, hi)`` of ``region``."""
        raise NotImplementedError

    def slot_regions(self, node_id: int, slot):
        """Regions to query when ``node_id`` fills ``slot``."""
        raise NotImplementedError

    # -- placement -----------------------------------------------------------

    def map_key(self, landmark_number: int, region) -> int:
        """Ring key at which a record is stored inside ``region``."""
        lo, hi = self.region_bounds(region)
        span = max(1, int((hi - lo) * self.condense_rate))
        fraction = landmark_number / self.space.number_range
        return (lo + int(fraction * span)) % self.ring.space

    # -- publish / withdraw -----------------------------------------------------

    def register_identity(self, node_id: int, host: int, landmark_vector) -> NodeRecord:
        vector = tuple(float(x) for x in landmark_vector)
        record = NodeRecord(
            node_id=node_id,
            host=host,
            landmark_vector=vector,
            landmark_number=self.space.number(np.asarray(vector)),
        )
        self.registry[node_id] = record
        return record

    def publish(self, node_id: int) -> int:
        """Write the record to all current regions; drop stale placements.

        Soft-state refresh naturally reconciles level drift: as the
        ring grows, deeper region levels become useful and the next
        refresh covers them.
        """
        record = self.registry[node_id]
        wanted = self.regions_of(node_id)
        for region in [r for r in self.maps if r not in wanted]:
            self._drop(region, node_id)
        for region in wanted:
            key = self.map_key(record.landmark_number, region)
            self.maps.setdefault(region, {})[node_id] = (record, key)
            self.ring.route(node_id, key, category="softstate_publish")
        return len(wanted)

    def withdraw(self, node_id: int, charge: bool = True) -> int:
        removed = 0
        for region in list(self.maps):
            if self._drop(region, node_id):
                removed += 1
                if charge:
                    self.network.stats.count("softstate_withdraw")
        self.registry.pop(node_id, None)
        return removed

    def _drop(self, region, node_id: int) -> bool:
        bucket = self.maps[region]
        held = bucket.pop(node_id, None) is not None
        if not bucket:
            del self.maps[region]
        return held

    # -- lookup --------------------------------------------------------------------

    def lookup(self, querier_id: int, region, max_results: int = None,
               charge: bool = True) -> list:
        """Candidates of ``region`` closest (landmark-wise) to the querier."""
        if max_results is None:
            max_results = self.max_results
        own = self.registry[querier_id]
        key = self.map_key(own.landmark_number, region)
        if charge:
            self.ring.route(querier_id, key, category="softstate_lookup")
        bucket = self.maps.get(region, {})
        records = [rec for node_id, (rec, _k) in bucket.items()
                   if node_id != querier_id and node_id in self.ring.nodes]
        if not records:
            return []
        own_vector = np.asarray(own.landmark_vector)
        vectors = np.array([r.landmark_vector for r in records])
        order = np.argsort(np.linalg.norm(vectors - own_vector, axis=1),
                           kind="stable")
        return [records[i] for i in order[:max_results]]

    def slot_records(self, node_id: int, slot, limit: int) -> list:
        """The first ``limit`` records of ``slot``'s regions (each
        landmark-closest first) whose ids lie in the slot's interval."""
        records = []
        for region in self.slot_regions(node_id, slot):
            records.extend(self.lookup(node_id, region))
        lo, hi = self.ring.slot_interval(node_id, slot)
        space = self.ring.space
        return [r for r in records if in_interval(r.node_id, lo, hi, space)][:limit]


def build_soft_state_overlay(ring_cls, softstate_cls, vanilla: NeighborPolicy,
                             network, num_nodes: int, landmarks: int,
                             policy_name: str, rtt_budget: int, seed: int,
                             **geometry):
    """Assemble a ring overlay with the chosen neighbor policy, fully built.

    ``policy_name`` is ``random``, ``optimal``, ``softstate`` or the
    name of ``vanilla``, the port's own proximity-blind rule;
    ``geometry`` goes to ``ring_cls``.  After all joins one refresh and
    table-rebuild round runs (the steady state a fix-fingers style
    stabilization converges to; its cost is charged to the usual
    counters).  Returns ``(ring, softstate)``;
    ``softstate`` is None for non-soft-state policies.
    """
    ring_rng, host_rng, landmark_rng, policy_rng = (
        np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(4)
    )
    ring = ring_cls(network=network, rng=ring_rng, stats=network.stats, **geometry)
    space = LandmarkSpace(select_landmarks(network, landmarks, landmark_rng))
    softstate = softstate_cls(ring, network, space)
    policies = {
        policy.name: policy
        for policy in (
            vanilla,
            RandomNeighborPolicy(policy_rng),
            ClosestNeighborPolicy(network),
            SoftStateNeighborPolicy(softstate, network, rtt_budget),
        )
    }
    if policy_name not in policies:
        raise ValueError(f"unknown neighbor policy {policy_name!r}")
    ring.policy = policies[policy_name]
    publishing = policy_name == "softstate"

    for host in network.sample_hosts(num_nodes, host_rng):
        node_id = ring.join(int(host))
        if publishing:
            vector = space.measure(network, int(host))
            softstate.register_identity(node_id, int(host), vector)
            softstate.publish(node_id)
        ring.build_table(node_id)
    if publishing:
        for node_id in ring.members():
            softstate.publish(node_id)  # soft-state refresh round
    for node_id in ring.members():
        ring.build_table(node_id)
    return ring, (softstate if publishing else None)
