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

Table entries are validated lazily at use; a dead or stale entry is
repaired through the policy and charged as a ``table_repair``
message.
"""

from __future__ import annotations

from bisect import bisect_left, insort

import numpy as np

from repro.overlay.can import CanOverlay
from repro.overlay.routing import NeighborPolicy, RandomNeighborPolicy, RouteResult
from repro.overlay.zone import CODE_BITS, cell_center, point_code, sibling_cells

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
        #: (node, level, cell) -> consecutive failed delivery attempts
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
        # node id -> {level -> {sibling cell -> representative node id}}
        self._tables: dict = {}
        # entry node -> (zone epoch the verdicts were computed at,
        # {(level, cell) -> bool}).  A verdict depends only on the entry
        # node's own zones, so a slot lives until *that node's* stamp in
        # ``can.zone_epoch`` moves; everyone else's joins leave it alone.
        self._valid_memo: dict = {}
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
            self._valid_memo.pop(node_id, None)
            for key in [k for k in self._entry_failures if k[0] == node_id]:
                del self._entry_failures[key]

    @staticmethod
    def _cells_of(node) -> set:
        """The ``(level, cell)`` high-order zones ``node``'s zones fit in."""
        entries = set()
        for zone in node.zones:
            cells = zone.cells()
            for level in range(1, min(zone.max_level, MAX_LEVEL) + 1):
                entries.add((level, cells[level]))
        return entries

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
        self.can.leave(node_id)

    def takeover_dead(self, node_id: int, dead=()) -> set:
        """Absorb a crashed member's zones and eagerly invalidate it.

        Unlike :meth:`leave`, every expressway table entry pointing at
        the corpse is evicted immediately (charged as
        ``eager_invalidate``) instead of waiting for a route to trip
        over it.  Returns the set of taker node ids.
        """
        takers = self.can.takeover_dead(node_id, dead=dead)
        self.invalidate_member(node_id)
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
                doomed = [cell for cell, entry in row.items() if entry == dead_id]
                for cell in doomed:
                    del row[cell]
                    self._entry_failures.pop((node_id, level, cell), None)
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
                    row[sibling] = entry
            table[level] = row
        self._tables[node_id] = table

    def refresh_entry(self, node_id: int, level: int, cell) -> int:
        """Re-run the policy for one table slot (used by pub/sub repair)."""
        entry = self._select(node_id, level, cell)
        if entry is not None:
            self._tables.setdefault(node_id, {}).setdefault(level, {})[cell] = entry
        return entry

    def table_entry(self, node_id: int, level: int, cell):
        """Current representative for ``cell``, repairing lazily if stale."""
        table = self._tables.setdefault(node_id, {})
        row = table.setdefault(level, {})
        entry = row.get(cell)
        if entry is not None and self._entry_valid(entry, level, cell):
            return entry, False
        repaired = entry is not None
        entry = self._select(node_id, level, cell)
        if entry is None:
            row.pop(cell, None)
            return None, repaired
        if repaired:
            self._count("table_repair")
        row[cell] = entry
        return entry, repaired

    def _entry_valid(self, entry: int, level: int, cell) -> bool:
        # validity is a pure function of the entry node's zones, so its
        # verdicts are memoised until that node's zone epoch moves
        epoch = self.can.zone_epoch.get(entry)
        if epoch is None:
            return False  # not a member
        slot = self._valid_memo.get(entry)
        if slot is None or slot[0] != epoch:
            slot = self._valid_memo[entry] = (epoch, {})
        verdicts = slot[1]
        key = (level, cell)
        hit = verdicts.get(key)
        if hit is None:
            hit = verdicts[key] = self._entry_valid_uncached(entry, level, cell)
        return hit

    def check_valid_memo(self) -> None:
        """AssertionError unless every current verdict matches a recount.

        Slots whose epoch has moved are dead weight (replaced at next
        use), so only current ones are compared; run from the
        stack-wide :func:`repro.core.recovery.check_invariants`.
        """
        epochs = self.can.zone_epoch
        for entry, (epoch, verdicts) in self._valid_memo.items():
            if epochs.get(entry) != epoch:
                continue
            for (level, cell), verdict in verdicts.items():
                assert verdict == self._entry_valid_uncached(entry, level, cell), (
                    f"validity memo says {verdict} for entry {entry} "
                    f"at level {level} cell {cell}"
                )

    def _entry_valid_uncached(self, entry: int, level: int, cell) -> bool:
        node = self.can.nodes.get(entry)
        if node is None:
            return False
        side = 1.0 / (1 << level)
        lo = [c * side for c in cell]
        hi = [(c + 1) * side for c in cell]
        for zone in node.zones:
            if all(
                zl < h and l < zh
                for zl, zh, l, h in zip(zone.lo, zone.hi, lo, hi)
            ):
                return True
        return False

    def table_of(self, node_id: int) -> dict:
        """Read-only view of a node's high-order table (level -> cell -> id)."""
        return self._tables.get(node_id, {})

    # -- routing ---------------------------------------------------------------

    def _try_hop(self, src_host: int, dst_host: int, category: str, result) -> bool:
        """Attempt to deliver one forwarding hop, retrying per the policy.

        Every send attempt is charged under ``category`` (a lost
        message was still transmitted); injected faults are accounted
        by the injector itself.  Only :meth:`_route_per_hop` sends
        through here, so the network's injector is armed.
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

    def _record_entry_failure(self, node_id: int, level: int, cell) -> None:
        """One more failed delivery through an expressway entry.

        After :data:`DEAD_ENTRY_THRESHOLD` consecutive failures the
        entry is evicted so the next route re-selects through the policy.
        """
        key = (node_id, level, cell)
        failures = self._entry_failures.get(key, 0) + 1
        if failures >= DEAD_ENTRY_THRESHOLD:
            self._entry_failures.pop(key, None)
            row = self._tables.get(node_id, {}).get(level)
            if row is not None:
                row.pop(cell, None)
            self._count("expressway_dead_skip")
        else:
            self._entry_failures[key] = failures

    def _decide(self, current, code, point, visited) -> tuple:
        """The forwarding rule: one hop from ``current`` toward ``point``.

        Returns None when ``point`` lies in ``current``'s zones (the
        route is delivered), else ``(next_id, level, cell, repaired)``:
        an unvisited expressway representative (``level`` and ``cell``
        name its table slot), else the unvisited CAN neighbor nearest to
        ``point`` with ``level`` None, else ``next_id`` None (stuck).
        ``repaired`` says the expressway slot was repaired on the way.
        The one copy of the rule: :meth:`next_hop`, the fault-free loop
        of :meth:`route` and the lossy :meth:`_route_per_hop` all call
        it, so the live runtime and the simulator cannot drift apart.

        ``code`` is the destination's
        :func:`~repro.overlay.zone.point_code`, XOR-ed once per
        dimension with the primary zone's code.  Shifted right by the
        zone's :attr:`~repro.overlay.zone.Zone.code_shifts`, the XORs
        say whether the zone contains the point (a multi-zone node then
        tests its other zones).  OR-ed together, their highest set bit
        names the expressway level, the first at which the destination's
        cell differs from the node's own, and the destination's cell
        there is the code shifted right.  A table entry whose validity
        verdict is memoised and current is read in place; anything else
        -- empty slot, stale verdict, invalid entry -- goes through
        :meth:`table_entry`, which repairs.
        """
        zones = current.zones
        zone = zones[0]
        diff = outside = 0
        for own, dest, shift in zip(zone.code, code, zone.code_shifts):
            bits = own ^ dest
            diff |= bits
            outside |= bits >> shift
        if not outside or (
            len(zones) > 1 and any(z.contains(point) for z in zones[1:])
        ):
            return None
        level = CODE_BITS + 1 - diff.bit_length()
        repaired = False
        if level <= zone.max_level:
            shift = CODE_BITS - level
            digits = []
            for c in code:  # a plain loop: a comprehension costs a frame
                digits.append(c >> shift)
            cell = tuple(digits)
            node_id = current.node_id
            try:
                entry = self._tables[node_id][level][cell]
                epoch, verdicts = self._valid_memo[entry]
            except KeyError:
                entry = None
            else:
                if epoch != self.can.zone_epoch.get(entry) or not verdicts.get(
                    (level, cell)
                ):
                    entry = None
            if entry is None:
                entry, repaired = self.table_entry(node_id, level, cell)
            if entry is not None and entry not in visited:
                return entry, level, cell, repaired
        nodes = self.can.nodes
        torus = self.can.torus
        # min() picks the (distance, id) pair a full sort would put
        # first; on a network that delivers every message it is the
        # only candidate ever tried
        best = min(
            (
                (nodes[n].distance_to_point(point, torus), n)
                for n in current.neighbors
                if n not in visited
            ),
            default=None,
        )
        return (None if best is None else best[1]), None, None, repaired

    def next_hop(self, node_id: int, point, visited=frozenset()) -> tuple:
        """One perfect-network forwarding decision from ``node_id``.

        Returns ``(next_id, kind)``: ``(None, "delivered")`` when the
        point lies in the node's own zone, ``(id, "expressway")`` for a
        high-order jump, ``(id, "can")`` for a greedy CAN hop, or
        ``(None, "stuck")`` when every neighbor was already visited.
        The same :meth:`_decide` drives the fault-free loop of
        :meth:`route` -- the live runtime (:mod:`repro.runtime`)
        forwards one wire frame per decision, and the resulting hop
        sequence matches what the synchronous simulator produces for
        the same tessellation.  A point :func:`point_code` refuses
        raises ValueError.
        """
        code = point_code(point, self.can.dims)
        decision = self._decide(self.can.nodes[node_id], code, point, visited)
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

        On a network that delivers every message (no injector armed)
        the route is a run of :meth:`_decide` steps whose hops are
        charged once at the end.  Otherwise each hop is a (possibly
        lost) message send: a :class:`RetryPolicy` resends with
        sim-clock backoff, expressway entries that keep failing are
        skipped (and evicted after :data:`DEAD_ENTRY_THRESHOLD` strikes) in
        favour of greedy CAN neighbors, and alternative neighbors are
        tried before the route is declared failed.  Without a policy a
        single lost hop fails the route -- the fire-and-forget baseline.
        A point :func:`point_code` refuses raises ValueError before any
        hop is made.
        """
        nodes = self.can.nodes
        if start_node not in nodes:
            raise KeyError(f"start node {start_node} not present")
        code = point_code(point, self.can.dims)
        network = self.network
        faults = network.faults if network is not None else None
        if faults is not None and faults.armed:
            return self._route_per_hop(start_node, code, point, category, max_hops)
        path = [start_node]
        visited = {start_node}
        result = RouteResult(path=path)
        current = nodes[start_node]
        failures = self._entry_failures
        try:
            while True:
                # the budget is judged before a decision that might repair
                if len(path) > max_hops and not current.contains(point):
                    result.success = False
                    break
                decision = self._decide(current, code, point, visited)
                if decision is None:
                    result.owner = current.node_id
                    break
                next_id, level, cell, repaired = decision
                if repaired:
                    result.repairs += 1
                if next_id is None:
                    result.success = False
                    break
                if level is None:
                    result.can_hops += 1
                else:
                    result.expressway_hops += 1
                    if failures:
                        failures.pop((current.node_id, level, cell), None)
                current = nodes[next_id]
                visited.add(next_id)
                path.append(next_id)
        finally:
            # every hop made was a message sent, however the route ended
            hops = len(path) - 1
            if hops:
                self._count(category, hops)
                if network is not None:
                    network.telemetry.count("hop", hops)
        return result

    def _route_per_hop(
        self, start_node: int, code, point, category: str, max_hops: int
    ) -> RouteResult:
        """:meth:`route` when a hop can be lost (an injector is armed).

        Each hop starts from :meth:`_decide`'s choice.  When that is a
        greedy CAN hop, or an expressway hop that could not be
        delivered, the unvisited CAN neighbors are tried nearest first
        (the order whose head ``_decide`` picked).  ``excluded`` holds
        the nodes visited and the ones found unreachable.
        """
        path = [start_node]
        excluded = {start_node}
        result = RouteResult(path=path)
        nodes = self.can.nodes
        torus = self.can.torus
        current = nodes[start_node]
        degrade = self.retry_policy is not None
        while True:
            if len(path) > max_hops and not current.contains(point):
                result.success = False
                return result
            decision = self._decide(current, code, point, excluded)
            if decision is None:
                result.owner = current.node_id
                return result
            next_id, level, cell, repaired = decision
            result.repairs += int(repaired)
            if level is not None:
                if self._try_hop(current.host, nodes[next_id].host, category, result):
                    result.expressway_hops += 1
                    self._entry_failures.pop((current.node_id, level, cell), None)
                else:
                    self._record_entry_failure(current.node_id, level, cell)
                    if not degrade:
                        result.success = False
                        return result
                    excluded.add(next_id)
                    result.degraded += 1
                    level = None
            if level is None:
                candidates = (
                    (nodes[n].distance_to_point(point, torus), n)
                    for n in current.neighbors
                    if n not in excluded
                )
                next_id = None
                for _, neighbor_id in sorted(candidates):
                    if self._try_hop(
                        current.host, nodes[neighbor_id].host, category, result
                    ):
                        next_id = neighbor_id
                        result.can_hops += 1
                        break
                    if not degrade:
                        result.success = False
                        return result
                    excluded.add(neighbor_id)
                if next_id is None:
                    result.success = False
                    return result
            current = nodes[next_id]
            excluded.add(next_id)
            path.append(next_id)
