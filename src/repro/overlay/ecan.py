"""eCAN: the expressway-augmented, hierarchical CAN.

eCAN overlays a quadtree of *high-order zones* on the CAN space:
every ``2^d`` order-``i`` zones form one order-``(i+1)`` zone, so the
level-``l`` high-order zones are exactly the level-``l`` quadtree
cells of :mod:`repro.overlay.zone`.  A node whose CAN zone sits at
quadtree level ``L`` is a member of the high-order zones that enclose
it at levels ``1..L``; besides its default CAN neighbors it keeps, at
every such level, one *representative* for each of the ``2^d - 1``
sibling cells of its own cell.  Routing first jumps along the highest
differing level (each jump lands inside the target's cell at that
level, Pastry-style prefix correction), then finishes with default
CAN hops inside the finest shared cell -- O(log N) hops overall.

The choice of representative is exactly the freedom that
proximity-neighbor selection exploits; it is abstracted behind
:class:`~repro.overlay.routing.NeighborPolicy`, whose slot here is the
``(level, cell)`` pair of a sibling zone.

A table row is keyed by its cells' Z-order indexes
(:func:`~repro.overlay.zone.interleave`), so the forwarding rule reads
a slot straight off the destination's key; :meth:`EcanOverlay.table_of`
and :meth:`EcanOverlay.slots` render them as cells.  Table entries are
validated lazily at use; a dead or stale entry is repaired through the
policy and charged as a ``table_repair`` message.
"""

from __future__ import annotations

from bisect import bisect_left, insort

import numpy as np

from repro.overlay.can import CanOverlay
from repro.overlay.routing import NeighborPolicy, RandomNeighborPolicy, RouteResult
from repro.overlay.zone import (
    CODE_BITS,
    cell_center,
    index_cell,
    interleave,
    point_key,
    sibling_cells,
)

#: hard cap on indexed quadtree depth; 2^24 cells per side is far beyond
#: any overlay size this simulator will see.
MAX_LEVEL = 24

#: path length past which a route counts as failed, in the simulator
#: (the default of :meth:`EcanOverlay.route`) and on the wire (a live
#: actor refuses to forward a ROUTE frame whose path is longer)
MAX_HOPS = 512
#: consecutive failed hops through an expressway entry that evict it
DEAD_ENTRY_THRESHOLD = 3


class EcanOverlay:
    """Hierarchical CAN with policy-driven high-order neighbor tables."""

    def __init__(
        self,
        dims: int = 2,
        rng=None,
        stats=None,
        network=None,
        retry_policy=None,
    ):
        self.can = CanOverlay(dims=dims, rng=rng, stats=stats)
        self.stats = stats
        #: optional Network; only consulted for fault injection on hops
        self.network = network
        #: optional RetryPolicy driving per-hop resend + backoff; None
        #: models fire-and-forget forwarding (a lost hop fails the route)
        self.retry_policy = retry_policy
        #: (node, level, index) -> consecutive failed delivery attempts
        self._entry_failures: dict = {}
        # Neither the default policy nor fallback picks may draw from the
        # join-point stream (can.rng), or two overlays differing only in
        # policy would grow structurally different zone layouts.
        #: fills every expressway slot; replace it before the first join
        self.policy: NeighborPolicy = RandomNeighborPolicy(
            np.random.default_rng(0xECA9)
        )
        self._fallback_rng = np.random.default_rng(0x5F5E1)
        # level -> {cell tuple -> sorted list of node ids whose zone
        # fits inside}; kept sorted incrementally so member queries on
        # the selection hot path never re-sort
        self._members: dict = {}
        # node id -> set of (level, cell) index entries, so a zone change
        # updates the member lists by difference
        self._indexed: dict = {}
        # node id -> {level -> {sibling cell's Z-order index ->
        # representative node id}}, each row in sibling_cells order
        self._tables: dict = {}
        #: bits of a Z-order key (:func:`~repro.overlay.zone.point_key`)
        self._key_bits = CODE_BITS * dims
        self.can.observers.append(self._on_can_event)

    # -- conveniences ------------------------------------------------------

    @property
    def dims(self) -> int:
        return self.can.dims

    @property
    def nodes(self) -> dict:
        return self.can.nodes

    def __len__(self) -> int:
        return len(self.can)

    def _count(self, category: str, n: int = 1) -> None:
        if self.stats is not None and category is not None and n:
            self.stats.count(category, n)

    # -- membership index --------------------------------------------------

    def _on_can_event(self, event: str, node_id: int) -> None:
        if event in ("join", "zone_change"):
            self._reindex(node_id)
        elif event == "leave":
            self._unindex(node_id)
            self._tables.pop(node_id, None)
            for key in [k for k in self._entry_failures if k[0] == node_id]:
                del self._entry_failures[key]

    @staticmethod
    def _cells_of(node) -> set:
        """The ``(level, cell)`` high-order zones ``node``'s zone fits in."""
        zone = node.zone
        cells = zone.cells()
        top = min(zone.max_level, MAX_LEVEL)
        return {(level, cells[level]) for level in range(1, top + 1)}

    def _unindex(self, node_id: int) -> None:
        self._drop_entries(node_id, self._indexed.pop(node_id, ()))

    def _drop_entries(self, node_id: int, entries) -> None:
        for level, cell in entries:
            bucket = self._members[level]
            members = bucket[cell]
            members.pop(bisect_left(members, node_id))
            if not members:
                del bucket[cell]
                if not bucket:
                    del self._members[level]

    def _reindex(self, node_id: int) -> None:
        """Bring ``node_id``'s member entries in line with its zones,
        touching only the cells it entered or left."""
        node = self.can.nodes.get(node_id)
        if node is None:
            self._unindex(node_id)
            return
        old = self._indexed.get(node_id, set())
        new = self._cells_of(node)
        self._drop_entries(node_id, old - new)
        for level, cell in new - old:
            insort(self._members.setdefault(level, {}).setdefault(cell, []), node_id)
        self._indexed[node_id] = new

    def check_member_index(self) -> None:
        """AssertionError unless the member index matches a recount.

        Recomputes every node's ``(level, cell)`` entries and every
        cell's sorted member list from the live zones; run from the
        stack-wide :func:`repro.core.recovery.check_invariants`.
        """
        indexed = {
            node_id: self._cells_of(node) for node_id, node in self.can.nodes.items()
        }
        assert self._indexed == indexed, "member index entries out of step with zones"
        members: dict = {}
        for node_id in sorted(indexed):
            for level, cell in indexed[node_id]:
                members.setdefault(level, {}).setdefault(cell, []).append(node_id)
        assert self._members == members, "per-cell member lists out of step with zones"

    def members(self, level: int, cell, exclude: int = None) -> list:
        """Sorted member node ids of the high-order zone ``(level, cell)``.

        Only nodes whose zone lies fully inside the cell are indexed;
        if none exists, the single node whose (larger) zone covers the
        cell's center is returned instead.  When ``exclude`` is not a
        member the index's own list comes back: read-only by contract.
        """
        found = self._members.get(level, {}).get(cell)
        if found:
            if exclude is None:
                return found
            i = bisect_left(found, exclude)
            if i == len(found) or found[i] != exclude:
                return found
            if len(found) > 1:
                return found[:i] + found[i + 1:]
        owner = self.can.owner_of_point(cell_center(cell, level))
        return [] if owner == exclude else [owner]

    # -- membership operations ------------------------------------------------

    def join(self, node_id: int, host: int, point=None, start_node=None):
        """Join the CAN, then build the newcomer's high-order tables."""
        node = self.can.join(node_id, host, point=point, start_node=start_node)
        self.build_table(node_id)
        return node

    def leave(self, node_id: int) -> None:
        """Leave the overlay; stale references elsewhere repair lazily."""
        self._depart(self.can.leave, node_id)

    def takeover_dead(self, node_id: int, dead=()) -> set:
        """Reassign a crashed member's zone and eagerly invalidate it.

        Unlike :meth:`leave`, every expressway table entry pointing at
        the corpse is evicted immediately (charged as
        ``eager_invalidate``) instead of waiting for a route to trip
        over it.  Returns the set of members whose zone changed.
        """
        takers = self._depart(self.can.takeover_dead, node_id, dead)
        self.invalidate_member(node_id)
        return takers

    def _depart(self, depart, node_id: int, *args) -> set:
        """``depart(node_id, *args)``, then a member that moved into the
        departed zone (:meth:`CanOverlay._reassign`) builds its table
        again, as a joiner does: its cells changed at every level.  A
        taker of a merged parent keeps the cells its table was built
        for."""
        node = self.can.nodes.get(node_id)
        takers = depart(node_id, *args)
        for taker in sorted(takers):
            if self.can.nodes[taker].zone == node.zone:
                self.build_table(taker)
        return takers

    def invalidate_member(self, dead_id: int) -> int:
        """Evict ``dead_id`` from every node's expressway table.

        The eager counterpart of the lazy ``table_repair`` path: after
        a confirmed death the recovery layer invalidates all entries at
        once so no route pays a failed hop to discover the corpse.
        Returns the number of entries evicted.
        """
        removed = 0
        for node_id, table in self._tables.items():
            for level, row in table.items():
                doomed = [index for index, entry in row.items() if entry == dead_id]
                for index in doomed:
                    del row[index]
                    self._entry_failures.pop((node_id, level, index), None)
                    removed += 1
        if removed:
            self._count("eager_invalidate", removed)
        return removed

    # -- high-order tables -------------------------------------------------------

    def _select(self, node_id: int, level: int, cell) -> int:
        candidates = self.members(level, cell, exclude=node_id)
        if not candidates:
            return None
        chosen = self.policy.select(self, node_id, (level, cell), candidates)
        if chosen is None:
            chosen = candidates[int(self._fallback_rng.integers(0, len(candidates)))]
        self._count("neighbor_select")
        return chosen

    def build_table(self, node_id: int) -> None:
        """(Re)build all high-order entries for ``node_id`` via the policy."""
        node = self.can.nodes[node_id]
        zone = node.zone
        table: dict = {}
        for level in range(1, zone.max_level + 1):
            own_cell = zone.cell(level)
            row = {}
            for sibling in sibling_cells(own_cell):
                entry = self._select(node_id, level, sibling)
                if entry is not None:
                    row[interleave(sibling)] = entry
            table[level] = row
        self._tables[node_id] = table

    def refresh_entry(self, node_id: int, level: int, cell) -> int:
        """Re-run the policy for one table slot (used by pub/sub repair)."""
        entry = self._select(node_id, level, cell)
        if entry is not None:
            self.set_entry(node_id, level, cell, entry)
        return entry

    def set_entry(self, node_id: int, level: int, cell, entry) -> None:
        """Write ``entry`` into ``node_id``'s slot ``(level, cell)`` as it
        is, or empty the slot when ``entry`` is None: the one table write
        that bypasses the policy (a repair's drop, an injected fault)."""
        row = self._tables.setdefault(node_id, {}).setdefault(level, {})
        if entry is None:
            row.pop(interleave(cell), None)
        else:
            row[interleave(cell)] = entry

    def table_entry(self, node_id: int, level: int, cell):
        """Current representative for ``cell``, repairing lazily if stale."""
        index = interleave(cell)
        row = self._tables.setdefault(node_id, {}).setdefault(level, {})
        entry = row.get(index)
        if entry is not None and self._entry_valid(entry, level, index):
            return entry, False
        repaired = entry is not None
        entry = self._select(node_id, level, cell)
        if entry is None:
            row.pop(index, None)
            return None, repaired
        if repaired:
            self._count("table_repair")
        row[index] = entry
        return entry, repaired

    def entry_valid(self, entry: int, level: int, cell) -> bool:
        """Whether ``entry`` is a member with a zone overlapping the
        high-order zone ``(level, cell)``, i.e. may represent that slot."""
        return self._entry_valid(entry, level, interleave(cell))

    def _entry_valid(self, entry: int, level: int, index: int) -> bool:
        """Whether member ``entry``'s zone overlaps the level-``level``
        cell of Z-order ``index``: two dyadic boxes overlap exactly when
        their keys agree on the bits both of them fix."""
        node = self.can.nodes.get(entry)
        if node is None:
            return False
        zone = node.zone
        fixed = level * self.can.dims
        unfixed = fixed - zone.depth  # cell bits the zone leaves free
        diff = zone.key >> (self._key_bits - fixed) ^ index
        return not diff >> (unfixed if unfixed > 0 else 0)

    def table_of(self, node_id: int) -> dict:
        """A copy of a node's high-order table as level -> cell -> id,
        each row in slot order."""
        dims = self.can.dims
        return {
            level: {
                index_cell(index, level, dims): entry for index, entry in row.items()
            }
            for level, row in self._tables.get(node_id, {}).items()
        }

    def slots(self) -> list:
        """Every filled slot of every table as ``(node_id, level, cell,
        entry)``, in table order."""
        return [
            (node_id, level, cell, entry)
            for node_id in self._tables
            for level, row in self.table_of(node_id).items()
            for cell, entry in row.items()
        ]

    # -- routing ---------------------------------------------------------------

    def _try_hop(self, src_host: int, dst_host: int, category: str, result) -> bool:
        """Attempt to deliver one forwarding hop, retrying per the policy.

        Every send attempt is charged under ``category`` (a lost
        message was still transmitted); injected faults are accounted
        by the injector itself.  :meth:`route` sends through here only
        while the network's injector is armed.
        """
        network = self.network
        telemetry = network.telemetry
        faults = network.faults
        self._count(category)
        telemetry.count("hop")
        if faults.deliver(src_host, dst_host):
            return True
        policy = self.retry_policy
        if policy is None:
            return False
        for attempt in range(1, policy.max_attempts):
            policy.sleep(attempt - 1, clock=network.clock, telemetry=telemetry)
            result.retries += 1
            self._count(category)
            telemetry.count("hop")
            if faults.deliver(src_host, dst_host):
                return True
        return False

    def _record_entry_failure(self, node_id: int, level: int, index: int) -> None:
        """One more failed delivery through an expressway entry.

        After :data:`DEAD_ENTRY_THRESHOLD` consecutive failures the
        entry is evicted so the next route re-selects through the policy.
        """
        key = (node_id, level, index)
        failures = self._entry_failures.get(key, 0) + 1
        if failures >= DEAD_ENTRY_THRESHOLD:
            self._entry_failures.pop(key, None)
            row = self._tables.get(node_id, {}).get(level)
            if row is not None:
                row.pop(index, None)
            self._count("expressway_dead_skip")
        else:
            self._entry_failures[key] = failures

    def decide(self, current, key, point, visited) -> tuple:
        """The forwarding rule: one hop from ``current`` toward ``point``.

        Pure: it reads the tables and zone keys only.  Returns None when
        ``point`` lies in ``current``'s zone (delivered), else
        ``(next_id, level, index, needs_repair)``: the unvisited
        representative of the expressway slot at ``level`` whose cell
        has Z-order ``index``, else the greedy step
        :meth:`CanOverlay.closest_neighbor` with ``level`` None, else
        ``next_id`` None (stuck).  A slot that is empty or whose entry
        no longer overlaps its cell comes back with ``next_id`` None and
        ``needs_repair`` set instead.

        ``key`` is the destination's
        :func:`~repro.overlay.zone.point_key` (exact down to the deepest
        zone, all this reads), XOR-ed once with the zone's
        :attr:`~repro.overlay.zone.Zone.key`: no set bit
        among the top ``depth`` means the zone contains the point; the
        highest set bit names the expressway level, the first at which
        the destination's cell differs from the node's own; and the
        destination's cell there is the key's top ``level * dims`` bits.
        """
        zone = current.zone
        bits = self._key_bits
        diff = zone.key ^ key
        if not diff >> (bits - zone.depth):
            return None
        dims = self.can.dims
        level = (bits - diff.bit_length()) // dims + 1
        if level <= zone.max_level:
            index = key >> (bits - level * dims)
            try:
                entry = self._tables[current.node_id][level][index]
            except KeyError:
                return None, level, index, True
            if not self._entry_valid(entry, level, index):
                return None, level, index, True
            if entry not in visited:
                return entry, level, index, False
        return self.can.closest_neighbor(current, point, visited), None, None, False

    def _step(self, current, key, point, visited, result) -> tuple:
        """:meth:`decide`, then the one :meth:`table_entry` it asks for
        (a repair counts on ``result`` unless None): routing's only
        table write.  Deciding again after a repair would select and
        charge the slot twice when the policy finds no member."""
        decision = self.decide(current, key, point, visited)
        if decision is None or not decision[3]:
            return decision
        _, level, index, _ = decision
        entry, repaired = self.table_entry(
            current.node_id, level, index_cell(index, level, self.can.dims)
        )
        if repaired and result is not None:
            result.repairs += 1
        if entry is None or entry in visited:
            return self.can.closest_neighbor(current, point, visited), None, None, False
        return entry, level, index, False

    def next_hop(self, node_id: int, point, visited=frozenset()) -> tuple:
        """One perfect-network forwarding decision from ``node_id``.

        Returns ``(next_id, kind)``: ``(None, "delivered")`` when the
        point lies in the node's own zone, ``(id, "expressway")`` for a
        high-order jump, ``(id, "can")`` for a greedy CAN hop, or
        ``(None, "stuck")`` when every neighbor was already visited.
        Every hop of :meth:`route` takes the same :meth:`_step`; the
        live runtime (:mod:`repro.runtime`) forwards one wire frame per
        decision, and the resulting hop sequence matches what the
        synchronous simulator produces for the same tessellation.  A
        point :func:`point_code` refuses raises ValueError.
        """
        key = point_key(point, self.can.dims, self.can.max_depth)
        decision = self._step(self.can.nodes[node_id], key, point, visited, None)
        if decision is None:
            return None, "delivered"
        next_id, level, _, _ = decision
        if next_id is None:
            return None, "stuck"
        return next_id, "can" if level is None else "expressway"

    def route(
        self,
        start_node: int,
        point,
        category: str = "ecan_route",
        max_hops: int = MAX_HOPS,
    ) -> RouteResult:
        """Prefix-style routing: expressway jumps, then CAN greedy hops.

        Every hop starts from :meth:`_step`.  On a network that
        delivers every message (no injector armed) that decision is the
        hop, and the hops are charged once at the end.  Otherwise each
        hop is a (possibly lost) message send through :meth:`_try_hop`,
        charged per attempt: a :class:`RetryPolicy` resends with
        sim-clock backoff, a lost expressway hop strikes its entry
        (evicted after :data:`DEAD_ENTRY_THRESHOLD` strikes) and falls
        back to greedy CAN neighbours, and unreachable neighbours are
        skipped, nearest first (:meth:`CanOverlay.closest_neighbor`
        again with each one excluded), before the route is declared
        failed.  Without a policy a single lost hop fails the route --
        the fire-and-forget baseline.  A point :func:`point_code`
        refuses raises ValueError before any hop is made.
        """
        nodes = self.can.nodes
        if start_node not in nodes:
            raise KeyError(f"start node {start_node} not present")
        key = point_key(point, self.can.dims, self.can.max_depth)
        network = self.network
        faults = network.faults if network is not None else None
        lossy = faults is not None and faults.armed
        degrade = self.retry_policy is not None
        closest = self.can.closest_neighbor
        path = [start_node]
        # the nodes visited, and (lossy) the ones found unreachable
        excluded = {start_node}
        result = RouteResult(path=path)
        current = nodes[start_node]
        failures = self._entry_failures
        try:
            while True:
                # the budget is judged before a step that might repair
                if len(path) > max_hops and not current.contains(point):
                    result.success = False
                    break
                decision = self._step(current, key, point, excluded, result)
                if decision is None:
                    result.owner = current.node_id
                    break
                next_id, level, index, _ = decision
                if lossy and next_id is not None:
                    # a lost hop strikes its expressway entry; without a
                    # retry policy it fails the route, with one the
                    # nearest neighbour not yet tried is tried next
                    host = current.host
                    while not self._try_hop(
                        host, nodes[next_id].host, category, result
                    ):
                        if level is not None:
                            self._record_entry_failure(current.node_id, level, index)
                            if degrade:
                                result.degraded += 1
                            level = None
                        excluded.add(next_id)
                        next_id = closest(current, point, excluded) if degrade else None
                        if next_id is None:
                            break
                if next_id is None:
                    result.success = False
                    break
                if level is None:
                    result.can_hops += 1
                else:
                    result.expressway_hops += 1
                    if failures:
                        failures.pop((current.node_id, level, index), None)
                current = nodes[next_id]
                excluded.add(next_id)
                path.append(next_id)
        finally:
            # every hop made was a message sent, however the route ended;
            # a lossy route paid for each attempt as it sent it
            hops = len(path) - 1
            if hops and not lossy:
                self._count(category, hops)
                if network is not None:
                    network.telemetry.count("hop", hops)
        return result
