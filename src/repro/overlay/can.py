"""The basic content-addressable network (CAN).

A CAN partitions a d-dimensional unit torus into zones, exactly one
zone per member node.  Keys are points in the space; the node whose
zone contains a point owns it.

* **Join** -- the newcomer picks a random point, routes to the owner
  of that point, and splits the owner's zone in half (split dimension
  cycles with depth), taking the half that contains its point.
* **Leave** -- the departing zone is reassigned so that every member
  keeps one zone (CAN's zone reassignment, Ratnasamy et al., SIGCOMM
  2001, section 3.3): the owner of the zone's *sibling* takes the
  merged parent when that sibling is one whole zone; otherwise the two
  owners of a pair of sibling leaf zones split the work -- one takes
  their parent, the other moves into the departed zone
  (:meth:`CanOverlay._reassign`).
* **Routing** -- greedy geographic forwarding on the torus: each hop
  moves to the neighbor whose zone is closest to the target point
  (:meth:`CanOverlay.closest_neighbor`, which eCAN's greedy hops
  share).  A visited set guards against ties/cycles (cannot happen in a
  well-formed CAN, but keeps routing total under any state).

Message accounting: every forwarding hop is charged to the overlay's
:class:`~repro.netsim.network.MessageStats` when one is attached.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.overlay.routing import RouteResult
from repro.overlay.zone import CODE_BITS, Zone, point_key


@dataclass
class CanNode:
    """State of one CAN participant."""

    node_id: int
    host: int
    zone: Zone
    neighbors: set = field(default_factory=set)

    def contains(self, point) -> bool:
        return self.zone.contains(point)

    def distance_to_point(self, point, torus: bool = True) -> float:
        return self.zone.distance_to_point(point, torus)


class CanOverlay:
    """A d-dimensional CAN over simulated hosts."""

    def __init__(self, dims: int = 2, rng=None, stats=None):
        if dims < 1:
            raise ValueError("dims must be >= 1")
        self.dims = dims
        #: the key space wraps around in every dimension
        self.torus = True
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.stats = stats
        self.nodes: dict = {}
        # owner lookup: depth -> {zone prefix (:attr:`Zone.prefix`) -> node_id}
        self._by_depth: dict = {}
        self._node_order: list = []
        #: observers notified as (event, node_id) on zone-set changes
        self.observers: list = []
        #: monotonically increasing tessellation version; bumped on every
        #: zone-set mutation
        self.zone_version = 0
        #: depth of the deepest zone, so of all of a point key that a
        #: routing decision reads (:func:`~repro.overlay.zone.point_key`)
        self.max_depth = 0
        #: point -> owner memo; a pure function of the tessellation, so
        #: emptied on every zone (un)index.  Local data structure only --
        #: resolutions through it are never charged.
        self._owner_memo: dict = {}

    # -- bookkeeping -------------------------------------------------------

    def __len__(self) -> int:
        return len(self.nodes)

    def __contains__(self, node_id) -> bool:
        return node_id in self.nodes

    def _count(self, category: str, n: int = 1) -> None:
        if self.stats is not None and category is not None and n:
            self.stats.count(category, n)

    def _index_zone(self, zone: Zone, node_id: int) -> None:
        self._by_depth.setdefault(zone.depth, {})[zone.prefix] = node_id
        self.max_depth = max(self.max_depth, zone.depth)
        self._zones_changed()

    def _unindex_zone(self, zone: Zone) -> None:
        bucket = self._by_depth.get(zone.depth)
        if bucket is not None:
            bucket.pop(zone.prefix, None)
            if not bucket:
                del self._by_depth[zone.depth]
                self.max_depth = max(self._by_depth, default=0)
        self._zones_changed()

    def _zones_changed(self) -> None:
        """A zone was (un)indexed: a new version, and an empty owner memo
        (a pure function of the version)."""
        self.zone_version += 1
        self._owner_memo.clear()

    def _notify(self, event: str, node_id: int) -> None:
        for observer in self.observers:
            observer(event, node_id)

    def random_node(self) -> int:
        """A uniformly random current member (for bootstrap contacts)."""
        if not self.nodes:
            raise RuntimeError("overlay is empty")
        while True:
            node_id = self._node_order[int(self.rng.integers(0, len(self._node_order)))]
            if node_id in self.nodes:
                return node_id
            # lazily compact the order list when it accumulates dead entries
            if len(self._node_order) > 2 * len(self.nodes):
                self._node_order = list(self.nodes)

    def random_point(self) -> tuple:
        return tuple(float(x) for x in self.rng.random(self.dims))

    # -- owner lookup (local data structure, not charged) --------------------

    def owner_of_point(self, point) -> int:
        """Node id owning ``point``; memoized O(#distinct depths) walk.

        The memo is a pure cache over the current tessellation, emptied
        on every zone (un)index (:meth:`_zones_changed`).  Resolving an
        owner is local computation and never charged.
        """
        key = point if type(point) is tuple else tuple(point)
        memo = self._owner_memo
        owner = memo.get(key)
        if owner is None:
            owner = self._resolve_owner(key)
            if len(memo) >= (1 << 17):
                memo.clear()
            memo[key] = owner
        return owner

    def _resolve_owner(self, point) -> int:
        bits = CODE_BITS * self.dims
        key = point_key(point, self.dims, self.max_depth)
        for depth, zones in self._by_depth.items():
            # the prefix the containing zone of this depth would have
            node_id = zones.get(key >> (bits - depth))
            if node_id is not None:
                return node_id
        raise KeyError(f"no owner for point {point}")

    def owners_of_points(self, points) -> list:
        """Batch :meth:`owner_of_point`; deduplicates repeated positions.

        Condensed proximity maps place many records at few distinct
        positions, so resolving each distinct point once (through
        :meth:`owner_of_point`) makes sweeps over whole maps near
        dictionary-speed.
        """
        seen: dict = {}
        out = []
        for point in points:
            key = point if type(point) is tuple else tuple(point)
            owner = seen.get(key)
            if owner is None:
                owner = self.owner_of_point(key)
                seen[key] = owner
            out.append(owner)
        return out

    # -- membership -----------------------------------------------------------

    def join(self, node_id: int, host: int, point=None, start_node=None) -> CanNode:
        """Add ``node_id`` (running on physical ``host``) to the overlay."""
        if node_id in self.nodes:
            raise ValueError(f"node {node_id} already present")
        if not self.nodes:
            node = CanNode(node_id=node_id, host=host, zone=Zone.root(self.dims))
            self.nodes[node_id] = node
            self._index_zone(node.zone, node_id)
            self._node_order.append(node_id)
            self._notify("join", node_id)
            return node

        if point is None:
            point = self.random_point()
        if start_node is None:
            start_node = self.random_node()
        result = self.route(start_node, point, category="join_route")
        owner = self.nodes[result.owner]

        # split the owner's zone, which contains the join point
        zone = owner.zone
        lower, upper = zone.split()
        keep, give = (upper, lower) if lower.contains(point) else (lower, upper)
        owner.zone = keep
        node = CanNode(node_id=node_id, host=host, zone=give)
        self._unindex_zone(zone)
        self._index_zone(keep, owner.node_id)
        self._index_zone(give, node_id)
        self.nodes[node_id] = node
        self._node_order.append(node_id)

        # neighbor updates are local: only the two nodes whose zones
        # changed can gain or lose links, and ``_rewire`` tests them
        # against the owner's previous neighborhood (the only nodes the
        # newcomer can abut); links among those third parties stand.
        self._rewire({owner.node_id, node_id})
        self._count("join_update", len(node.neighbors) + 1)
        self._notify("join", node_id)
        self._notify("zone_change", owner.node_id)
        return node

    def leave(self, node_id: int) -> set:
        """Remove ``node_id``; its zone is reassigned (:meth:`_reassign`)."""
        return self._depart(node_id, exclude={node_id}, category="leave_update")

    def takeover_dead(self, node_id: int, dead=()) -> set:
        """Reassign a *crashed* member's zone (failure-detector driven).

        Same reassignment as :meth:`leave`, but charged under
        ``crash_takeover`` and with ``dead`` -- other members currently
        believed dead -- taking part only when no live member can, so
        one corpse absorbs another's zone only until its own takeover
        passes it on.  Returns the set of members whose zone changed.
        """
        exclude = {node_id} | {int(d) for d in dead}
        return self._depart(node_id, exclude=exclude, category="crash_takeover")

    def _depart(self, node_id: int, exclude: set, category: str) -> set:
        node = self.nodes.get(node_id)
        if node is None:
            raise KeyError(f"node {node_id} not present")
        if len(self.nodes) > 1 and exclude.issuperset(self.nodes):
            raise RuntimeError(f"zone {node.zone} has no takeover candidate")
        self._unindex_zone(node.zone)
        del self.nodes[node_id]
        takers = self._reassign(node.zone, exclude) if self.nodes else set()
        if takers:
            self._count(category)
            self._rewire(node.neighbors | takers)
        self._notify("leave", node_id)
        for taker in sorted(takers):
            self._notify("zone_change", taker)
        return takers

    def _reassign(self, zone: Zone, exclude: set) -> set:
        """Hand the orphaned, unindexed ``zone`` on so that every member
        keeps exactly one zone; returns the members whose zone changed.

        If ``zone``'s sibling is one whole zone, its holder takes the
        merged parent.  Otherwise the holders ``a``, ``b`` of a pair of
        sibling leaf zones (:meth:`_leaf_pairs`) do: ``a`` takes their
        parent and ``b`` moves into ``zone``, charged as one
        ``zone_reassign`` message.  Members in ``exclude`` take part
        only when no choice without them exists.  No RNG is drawn.
        """
        sibling = self._by_depth.get(zone.depth, {}).get(zone.prefix ^ 1)
        for eligible in (self.nodes.keys() - exclude, self.nodes):
            if sibling in eligible:
                self._absorb(sibling, zone)
                return {sibling}
            for a, b in self._leaf_pairs():
                if a in eligible and b in eligible:
                    mover = self.nodes[b]
                    self._unindex_zone(mover.zone)
                    self._absorb(a, mover.zone)
                    mover.zone = zone
                    self._index_zone(zone, b)
                    self._count("zone_reassign")
                    return {a, b}
        raise AssertionError(f"no sibling leaf pair to take over {zone}")

    def _absorb(self, node_id: int, sibling: Zone) -> None:
        """``node_id``'s zone merges with the unindexed ``sibling``."""
        node = self.nodes[node_id]
        self._unindex_zone(node.zone)
        node.zone = node.zone.merge(sibling)
        self._index_zone(node.zone, node_id)

    def _leaf_pairs(self):
        """Holders ``(a, b)`` of two sibling zones, lower half first:
        deepest depth first, then lowest corner (:attr:`Zone.code`, which
        orders zones of one depth as their grid indices do).  Every zone
        of the deepest depth has a whole sibling, so when the departed
        zone's sibling is split the first depth yields a pair."""
        nodes = self.nodes
        for depth in sorted(self._by_depth, reverse=True):
            bucket = self._by_depth[depth]
            for a in sorted(bucket.values(), key=lambda n: nodes[n].zone.code):
                prefix = nodes[a].zone.prefix
                if not prefix & 1 and prefix ^ 1 in bucket:
                    yield a, bucket[prefix ^ 1]

    def _adjacent(self, a: CanNode, b: CanNode) -> bool:
        return a.zone.is_neighbor(b.zone, self.torus)

    def _rewire(self, node_ids) -> None:
        """Recompute neighbor sets for ``node_ids`` after local zone changes."""
        node_ids = {n for n in node_ids if n in self.nodes}
        # candidate peers: previous neighborhoods plus the changed set itself
        candidates = set(node_ids)
        for node_id in node_ids:
            candidates |= self.nodes[node_id].neighbors
        candidates = {c for c in candidates if c in self.nodes}

        for node_id in node_ids:
            node = self.nodes[node_id]
            old = node.neighbors
            new = {
                c
                for c in candidates
                if c != node_id and self._adjacent(node, self.nodes[c])
            }
            # keep still-valid links to nodes outside the candidate set
            for other_id in old - candidates:
                other = self.nodes.get(other_id)
                if other is not None and self._adjacent(node, other):
                    new.add(other_id)
            for other_id in old - new:
                other = self.nodes.get(other_id)
                if other is not None:
                    other.neighbors.discard(node_id)
            for other_id in new:
                self.nodes[other_id].neighbors.add(node_id)
            node.neighbors = new

    # -- routing -----------------------------------------------------------------

    def closest_neighbor(self, current: CanNode, point, excluded) -> int:
        """The greedy step: ``current``'s neighbour nearest ``point``.

        Neighbours in ``excluded`` are skipped; of equally near ones the
        lower id wins, and None means every neighbour is excluded.  A
        point on a zone boundary is at distance 0 from every zone that
        touches it, so when the nearest neighbour is at distance 0
        without containing the point, the neighbour that contains it
        (if any) goes first: the order is ``(not contains, distance,
        id)``.  Calling again with the returned id added to
        ``excluded`` walks that order one neighbour at a time.
        """
        nodes = self.nodes
        torus = self.torus
        best = node_id = None
        # a plain loop: a generator fed to min() costs a frame per call
        for n in current.neighbors:
            if n in excluded:
                continue
            distance = nodes[n].distance_to_point(point, torus)
            if best is None or distance < best or (distance == best and n < node_id):
                best = distance
                node_id = n
        if best == 0.0 and not nodes[node_id].contains(point):
            for n in current.neighbors:
                if n not in excluded and nodes[n].contains(point):
                    return n
        return node_id

    def route(
        self,
        start_node: int,
        point,
        category: str = "can_route",
    ) -> RouteResult:
        """Greedy-forward from ``start_node`` to the owner of ``point``
        by :meth:`closest_neighbor` steps; a route that outgrows its hop
        budget, or reaches a node whose neighbours are all visited,
        fails."""
        if start_node not in self.nodes:
            raise KeyError(f"start node {start_node} not present")
        max_hops = 16 * self.dims * max(4, int(len(self.nodes) ** (1.0 / self.dims)) + 2)
        path = [start_node]
        visited = {start_node}
        current = self.nodes[start_node]
        while not current.contains(point):
            if len(path) > max_hops:
                return RouteResult(path=path, owner=None, success=False)
            next_id = self.closest_neighbor(current, point, visited)
            if next_id is None:
                return RouteResult(path=path, owner=None, success=False)
            current = self.nodes[next_id]
            visited.add(next_id)
            path.append(next_id)
            self._count(category)
        return RouteResult(path=path, owner=current.node_id, success=True)

    # -- diagnostics ---------------------------------------------------------------

    def total_volume(self) -> float:
        """Sum of all zone volumes (must equal 1.0 in a consistent CAN)."""
        return sum(n.zone.volume() for n in self.nodes.values())

    def check_invariants(self) -> None:
        """Raise AssertionError if the zone set or neighbor sets are broken."""
        volume = self.total_volume()
        assert abs(volume - 1.0) < 1e-9, f"zone volumes sum to {volume}"
        assert self.max_depth == max(self._by_depth, default=0), "stale max_depth"
        for point, owner in self._owner_memo.items():
            assert owner == self._resolve_owner(point), (
                f"owner memo says {owner} for {point}"
            )
        indexed = [
            (depth, prefix, holder)
            for depth, bucket in self._by_depth.items()
            for prefix, holder in bucket.items()
        ]
        assert len(indexed) == len(self.nodes), (
            f"{len(indexed)} indexed zones for {len(self.nodes)} members"
        )
        for depth, prefix, holder in indexed:
            assert holder in self.nodes, f"zone index names non-member {holder}"
            zone = self.nodes[holder].zone
            assert (zone.depth, zone.prefix) == (depth, prefix), (
                f"zone index says {holder} holds ({depth}, {prefix}), not {zone}"
            )
        for node_id, node in self.nodes.items():
            for neighbor_id in node.neighbors:
                assert neighbor_id in self.nodes, "dangling neighbor link"
                assert node_id in self.nodes[neighbor_id].neighbors, (
                    "asymmetric neighbor link"
                )
                assert self._adjacent(node, self.nodes[neighbor_id]), (
                    "non-adjacent neighbor link"
                )
            if len(self.nodes) > 1:
                assert node.neighbors, f"node {node_id} is isolated"
