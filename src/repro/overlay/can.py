"""The basic content-addressable network (CAN).

A CAN partitions a d-dimensional unit torus into zones, one owner
node per zone (after churn a node may temporarily own several zones,
as in the original CAN's takeover procedure).  Keys are points in the
space; the node whose zone contains a point owns it.

* **Join** -- the newcomer picks a random point, routes to the owner
  of that point, and splits the owner's zone in half (split dimension
  cycles with depth), taking the half that contains its point.
* **Leave** -- each zone of the departing node is handed to a
  neighbor: the owner of the zone's *sibling* if that sibling is
  intact (producing a clean merge), otherwise the smallest-volume
  neighboring node, which then holds multiple zones until merges
  become possible.
* **Routing** -- greedy geographic forwarding on the torus: each hop
  moves to the neighbor whose zone is closest to the target point.
  A visited set guards against ties/cycles (cannot happen in a
  well-formed CAN, but keeps routing total under any state).

Message accounting: every forwarding hop is charged to the overlay's
:class:`~repro.netsim.network.MessageStats` when one is attached.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.overlay.routing import RouteResult
from repro.overlay.zone import CODE_BITS, Zone, point_code


@dataclass
class CanNode:
    """State of one CAN participant."""

    node_id: int
    host: int
    zones: list = field(default_factory=list)
    neighbors: set = field(default_factory=set)

    @property
    def zone(self) -> Zone:
        """Primary zone (the first one; nodes usually own exactly one)."""
        return self.zones[0]

    def contains(self, point) -> bool:
        zones = self.zones
        if len(zones) == 1:  # the overwhelmingly common case
            return zones[0].contains(point)
        return any(z.contains(point) for z in zones)

    def distance_to_point(self, point, torus: bool = True) -> float:
        zones = self.zones
        if len(zones) == 1:
            return zones[0].distance_to_point(point, torus)
        return min(z.distance_to_point(point, torus) for z in zones)

    def total_volume(self) -> float:
        return sum(z.volume() for z in self.zones)


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
        # owner lookup: depth -> {integer index tuple -> node_id}
        self._by_depth: dict = {}
        self._node_order: list = []
        #: observers notified as (event, node_id) on zone-set changes
        self.observers: list = []
        #: monotonically increasing tessellation version; bumped on every
        #: zone-set mutation
        self.zone_version = 0
        #: member id -> :attr:`zone_version` at that member's last zone-set
        #: change.  Stamped in the same statement that bumps the version,
        #: so a cache keyed on one node's stamp (eCAN's validity memo) can
        #: never read a verdict older than the zones it was computed from.
        self.zone_epoch: dict = {}
        #: point -> owner memo; a pure function of the tessellation.  Local
        #: data structure only -- resolutions through it are never charged.
        self._owner_memo: dict = {}
        #: reverse side of the memo: owner -> the points memoised to it, so
        #: a zone (un)index drops only the entries of the node it touched
        self._memo_points: dict = {}

    # -- bookkeeping -------------------------------------------------------

    def __len__(self) -> int:
        return len(self.nodes)

    def __contains__(self, node_id) -> bool:
        return node_id in self.nodes

    def _count(self, category: str, n: int = 1) -> None:
        if self.stats is not None and category is not None and n:
            self.stats.count(category, n)

    @staticmethod
    def _zone_index(zone: Zone) -> tuple:
        """Integer grid index of a zone among equal-shaped zones of its depth."""
        return tuple(
            int(round(lo / (hi - lo))) for lo, hi in zip(zone.lo, zone.hi)
        )

    def _index_zone(self, zone: Zone, node_id: int) -> None:
        self._by_depth.setdefault(zone.depth, {})[self._zone_index(zone)] = node_id
        self._zones_changed(node_id)

    def _unindex_zone(self, zone: Zone) -> None:
        holder = None
        bucket = self._by_depth.get(zone.depth)
        if bucket is not None:
            holder = bucket.pop(self._zone_index(zone), None)
            if not bucket:
                del self._by_depth[zone.depth]
        self._zones_changed(holder)

    def _zones_changed(self, node_id) -> None:
        """One zone of ``node_id`` was (un)indexed: new version, new stamp.

        A memoised point changes owner only when the zone holding it is
        unindexed, which names its holder here; so dropping that one
        node's memo entries keeps the rest of the memo exact.
        """
        self.zone_version += 1
        if node_id is not None:
            self.zone_epoch[node_id] = self.zone_version
            points = self._memo_points.pop(node_id, None)
            if points:
                memo = self._owner_memo
                for point in points:
                    del memo[point]

    def _forget(self, node_id: int) -> None:
        del self.nodes[node_id]
        self.zone_epoch.pop(node_id, None)

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

        The memo is a pure cache over the current tessellation; a zone
        (un)index drops the entries of the node whose zones changed
        (:meth:`_zones_changed`).  Resolving an owner is local
        computation and never charged.
        """
        key = point if type(point) is tuple else tuple(point)
        memo = self._owner_memo
        owner = memo.get(key)
        if owner is None:
            owner = self._resolve_owner(key)
            if len(memo) >= (1 << 17):
                memo.clear()
                self._memo_points.clear()
            memo[key] = owner
            self._memo_points.setdefault(owner, []).append(key)
        return owner

    def _resolve_owner(self, point) -> int:
        dims = self.dims
        code = point_code(point, dims)
        for depth, zones in self._by_depth.items():
            # the index the containing zone of this depth would have: the
            # top ``splits`` bits of each coordinate's code
            splits, extra = divmod(depth, dims)
            shift = CODE_BITS - splits
            idx = tuple(
                [c >> (shift - 1 if i < extra else shift) for i, c in enumerate(code)]
            )
            node_id = zones.get(idx)
            if node_id is not None:
                return node_id
        raise KeyError(f"no owner for point {point}")

    def owners_of_points(self, points) -> list:
        """Batch :meth:`owner_of_point`; deduplicates repeated positions.

        Condensed proximity maps place many records at few distinct
        positions, so resolving each distinct point once (on top of the
        memo) makes sweeps over whole maps near dictionary-speed.
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
        node = CanNode(node_id=node_id, host=host)
        if not self.nodes:
            root = Zone.root(self.dims)
            node.zones.append(root)
            self.nodes[node_id] = node
            self._index_zone(root, node_id)
            self._node_order.append(node_id)
            self._notify("join", node_id)
            return node

        if point is None:
            point = self.random_point()
        if start_node is None:
            start_node = self.random_node()
        result = self.route(start_node, point, category="join_route")
        owner = self.nodes[result.owner]

        # split the owner's zone that contains the join point
        zone = next(z for z in owner.zones if z.contains(point))
        lower, upper = zone.split()
        keep, give = (upper, lower) if lower.contains(point) else (lower, upper)
        owner.zones[owner.zones.index(zone)] = keep
        node.zones.append(give)
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
        """Remove ``node_id``; its zones are taken over by neighbors."""
        return self._depart(node_id, exclude={node_id}, category="leave_update")

    def takeover_dead(self, node_id: int, dead=()) -> set:
        """Absorb a *crashed* member's zones (failure-detector driven).

        Same zone handover as :meth:`leave`, but charged under
        ``crash_takeover`` and with ``dead`` -- other members currently
        believed dead -- excluded from the taker candidates, so one
        corpse never absorbs another's zones during a mass-crash
        repair.  Returns the set of taker node ids.
        """
        exclude = {node_id} | {int(d) for d in dead}
        return self._depart(node_id, exclude=exclude, category="crash_takeover")

    def _depart(self, node_id: int, exclude: set, category: str) -> set:
        node = self.nodes.get(node_id)
        if node is None:
            raise KeyError(f"node {node_id} not present")
        if len(self.nodes) == 1:
            for zone in node.zones:
                self._unindex_zone(zone)
            self._forget(node_id)
            self._notify("leave", node_id)
            return set()

        affected = set(node.neighbors)
        takers = set()
        for zone in list(node.zones):
            self._unindex_zone(zone)
            taker = self._takeover_target(zone, exclude=exclude)
            taker_node = self.nodes[taker]
            taker_node.zones.append(zone)
            self._index_zone(zone, taker)
            takers.add(taker)
            self._count(category)
        self._forget(node_id)

        for taker in takers:
            self._merge_zones(self.nodes[taker])
        self._rewire(affected | takers)
        self._notify("leave", node_id)
        for taker in takers:
            self._notify("zone_change", taker)
        return takers

    def _takeover_target(self, zone: Zone, exclude) -> int:
        """Pick the node to absorb ``zone``: sibling owner, else the
        smallest-volume neighboring node, else (mass-crash fallback)
        the globally smallest-volume surviving node.

        ``exclude`` is the departing node id, or a collection of ids
        (the departing node plus any other currently-dead members).
        """
        if isinstance(exclude, (set, frozenset, list, tuple)):
            excluded = {int(e) for e in exclude}
        else:
            excluded = {int(exclude)}
        candidates = []
        for other_id, other in self.nodes.items():
            if other_id in excluded:
                continue
            for oz in other.zones:
                if zone.is_sibling(oz):
                    return other_id
            if any(zone.is_neighbor(oz, self.torus) for oz in other.zones):
                candidates.append((other.total_volume(), other_id))
        if not candidates:
            # After a mass crash every neighboring zone may belong to
            # another corpse; hand the zone to the globally
            # smallest-volume survivor rather than dying on a repair.
            survivors = [
                (other.total_volume(), other_id)
                for other_id, other in self.nodes.items()
                if other_id not in excluded
            ]
            if not survivors:
                raise RuntimeError(f"zone {zone} has no takeover candidate")
            self._count("takeover_fallback")
            return min(survivors)[1]
        return min(candidates)[1]

    def _merge_zones(self, node: CanNode) -> None:
        """Collapse sibling pairs held by one node into their parents."""
        merged = True
        while merged and len(node.zones) > 1:
            merged = False
            for i in range(len(node.zones)):
                for j in range(i + 1, len(node.zones)):
                    if node.zones[i].is_sibling(node.zones[j]):
                        parent = node.zones[i].merge(node.zones[j])
                        self._unindex_zone(node.zones[i])
                        self._unindex_zone(node.zones[j])
                        node.zones = [
                            z for k, z in enumerate(node.zones) if k not in (i, j)
                        ]
                        node.zones.insert(0, parent)
                        self._index_zone(parent, node.node_id)
                        merged = True
                        break
                if merged:
                    break

    def _adjacent(self, a: CanNode, b: CanNode) -> bool:
        return any(
            za.is_neighbor(zb, self.torus) for za in a.zones for zb in b.zones
        )

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

    def route(
        self,
        start_node: int,
        point,
        category: str = "can_route",
    ) -> RouteResult:
        """Greedy-forward from ``start_node`` to the owner of ``point``;
        a route that outgrows its hop budget fails."""
        if start_node not in self.nodes:
            raise KeyError(f"start node {start_node} not present")
        max_hops = 16 * self.dims * max(4, int(len(self.nodes) ** (1.0 / self.dims)) + 2)
        path = [start_node]
        visited = {start_node}
        current = self.nodes[start_node]
        while not current.contains(point):
            if len(path) > max_hops:
                return RouteResult(path=path, owner=None, success=False)
            best = None
            for neighbor_id in current.neighbors:
                if neighbor_id in visited:
                    continue
                neighbor = self.nodes[neighbor_id]
                dist = neighbor.distance_to_point(point, self.torus)
                if best is None or (dist, neighbor_id) < best:
                    best = (dist, neighbor_id)
            if best is None:
                return RouteResult(path=path, owner=None, success=False)
            current = self.nodes[best[1]]
            visited.add(best[1])
            path.append(best[1])
            self._count(category)
        return RouteResult(path=path, owner=current.node_id, success=True)

    # -- diagnostics ---------------------------------------------------------------

    def total_volume(self) -> float:
        """Sum of all zone volumes (must equal 1.0 in a consistent CAN)."""
        return sum(z.volume() for n in self.nodes.values() for z in n.zones)

    def check_invariants(self) -> None:
        """Raise AssertionError if the zone set or neighbor sets are broken."""
        volume = self.total_volume()
        assert abs(volume - 1.0) < 1e-9, f"zone volumes sum to {volume}"
        assert set(self.zone_epoch) == set(self.nodes), (
            "zone-epoch stamps out of step with the membership"
        )
        for point, owner in self._owner_memo.items():
            assert owner == self._resolve_owner(point), (
                f"owner memo says {owner} for {point}"
            )
        reverse = [
            (point, owner)
            for owner, points in self._memo_points.items()
            for point in points
        ]
        assert sorted(reverse) == sorted(self._owner_memo.items()), (
            "owner memo and its reverse index disagree"
        )
        for node_id, node in self.nodes.items():
            assert node.zones, f"node {node_id} owns no zone"
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
