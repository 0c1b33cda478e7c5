"""The distributed soft-state store.

For every high-order zone (region) of the overlay there is one
proximity map containing a record per member node, placed inside the
region by :func:`repro.softstate.maps.map_position`.  Because a
record's location is a *function of the current zone tessellation*,
zone handover during churn implicitly migrates the hosted records,
exactly as objects move with zones in a real CAN.

Costs are accounted faithfully:

* ``softstate_publish`` -- overlay hops spent routing a record to its
  position, once per enclosing region;
* ``softstate_lookup`` -- hops of the Table-1 lookup, plus one message
  per extra node visited while widening an empty shard;
* ``softstate_withdraw`` / ``softstate_load_update`` -- analogous.

The store emits :class:`MapEvent` callbacks on every mutation; the
publish/subscribe layer listens to these.
"""

from __future__ import annotations

import contextlib
import enum
import math
from dataclasses import dataclass

import numpy as np

from repro.softstate.maps import Region, map_position, regions_of_zone
from repro.softstate.records import NodeRecord


#: "a maximum of X nodes closest to the requesting node is sent back":
#: the candidates one lookup returns
MAX_RESULTS = 16
#: widening hops a lookup takes over the region's nodes when the serving
#: node's shard is empty
WIDEN_TTL = 2


class EventKind(enum.Enum):
    NODE_JOINED = "node_joined"
    NODE_LEFT = "node_left"
    LOAD_UPDATED = "load_updated"
    RECORD_EXPIRED = "record_expired"


@dataclass(frozen=True)
class MapEvent:
    """A mutation of one region's proximity map."""

    kind: EventKind
    region: Region
    record: NodeRecord


@dataclass(slots=True)
class StoredRecord:
    record: NodeRecord
    position: tuple
    #: replica positions (empty unless the store replicates); the copy
    #: at ``position`` is the primary, lookups are served from it
    replicas: tuple = ()
    #: per-region insertion sequence (monotone); sorting by it
    #: reproduces the bucket's dict insertion order, so index-served
    #: lookups return records in exactly the order a bucket scan would
    seq: int = 0
    #: overlay node hosting the primary copy, kept current through the
    #: CAN's observer events so lookups and sweeps never re-resolve
    #: ``owner_of_point`` per record (owner resolution is a local data
    #: structure, never charged); None until the store attributes it
    owner: int = None


@dataclass(slots=True)
class LookupResult:
    """Outcome of a map lookup (Table 1 of the paper)."""

    records: list
    #: overlay node that served the request
    served_by: int = None
    #: how many widening hops were needed beyond the first shard
    widened: int = 0


class SoftStateStore:
    """Publish / lookup / withdraw over the overlay's proximity maps."""

    def __init__(
        self,
        ecan,
        network,
        space,
        condense_rate: float = 1.0 / 16.0,
        record_ttl: float = math.inf,
        replication_factor: int = 1,
    ):
        if replication_factor < 1:
            raise ValueError("replication_factor must be >= 1")
        self.ecan = ecan
        self.network = network
        self.space = space
        self.condense_rate = condense_rate
        self.record_ttl = record_ttl
        #: copies kept per record per region (1 = no replication); the
        #: extra copies sit at landmark-number offsets so they usually
        #: land on different hosting nodes and survive a host crash
        self.replication_factor = replication_factor
        #: region -> {node_id -> StoredRecord}
        self.maps: dict = {}
        #: reverse side of :attr:`StoredRecord.owner`: owner node -> {region
        #: -> set(node_id)} entries attributed to it, so a zone event
        #: re-resolves only the touched owner's entries and a lookup
        #: reads the serving node's shard without scanning the map
        self._attributed: dict = {}
        #: (owner, region) -> (records in seq order, their landmark vectors
        #: stacked as one read-only matrix): what a lookup served by
        #: ``owner`` reads, built on first use and kept current in place:
        #: a refresh swaps the record, a first insert appends a row, and
        #: only a record leaving that one shard drops it
        self._views: dict = {}
        #: region -> next insertion sequence number (never reused, so
        #: seq order always equals bucket insertion order)
        self._seq: dict = {}
        #: node_id -> its own NodeRecord (identity registry)
        self.registry: dict = {}
        #: node_id -> set of regions currently holding its record
        self._published: dict = {}
        #: inside :meth:`bulk_load`: nodes whose republish-on-zone-change
        #: is deferred to the context exit (None = normal operation)
        self._deferred = None
        #: crashed host's node id -> [(region, node_id)] records whose
        #: primary copy died but a replica survived (recovery re-hosts)
        self._pending_rehost: dict = {}
        #: (region, node_id) records lost outright with a crashed host;
        #: their subjects re-publish on the next maintenance sweep
        self.lost_records: list = []
        #: event hooks: callables taking a MapEvent
        self.hooks: list = []
        # A zone split/merge changes which regions enclose a node, so the
        # owner re-publishes to keep map placement current (it performed
        # the split itself, so it knows immediately).
        ecan.can.observers.append(self._on_zone_event)

    def _on_zone_event(self, event: str, node_id: int) -> None:
        # keep the position->owner index current *before* any republish:
        # ownership of a stored position can only change when the zone
        # set of its current host changes (split, merge, handover), so
        # only entries attributed to ``node_id`` need re-resolution.  A
        # "join" carries no attributed entries yet; the paired
        # "zone_change" of the split owner covers the moved positions.
        if event in ("zone_change", "leave"):
            self._reassign_hosted(node_id)
        if event == "zone_change" and node_id in self.registry:
            if self._deferred is not None:
                self._deferred.add(node_id)
            else:
                self.publish(node_id)

    def _attribution_drop(self, owner: int, region: Region, node_id: int) -> None:
        by_region = self._attributed.get(owner)
        if by_region is None:
            return
        shard = by_region.get(region)
        if shard is None:
            return
        shard.discard(node_id)
        self._views.pop((owner, region), None)
        if not shard:
            del by_region[region]
            if not by_region:
                del self._attributed[owner]

    def _index_insert(
        self, region: Region, node_id: int, owner: int, replaced: NodeRecord = None
    ) -> None:
        """Attribute ``(region, node_id)`` to ``owner`` in both directions.

        ``replaced`` is the record the entry held before this write (None
        for a first insert).  A refresh by the same owner swaps it for the
        new record in that owner's view; a first insert appends a row to
        it, since its ``seq`` is the region's largest; a move between
        owners drops the views of both.
        """
        stored = self.maps[region][node_id]
        prior = stored.owner
        if prior == owner:
            if replaced is not None:
                self._view_swap(owner, region, replaced, stored.record)
            return
        if prior is not None:
            self._attribution_drop(prior, region, node_id)
        stored.owner = owner
        self._attributed.setdefault(owner, {}).setdefault(region, set()).add(node_id)
        key = (owner, region)
        view = self._views.get(key)
        if view is None:
            return
        if prior is not None:
            del self._views[key]
            return
        records, matrix = view
        records.append(stored.record)
        matrix = np.concatenate((matrix, stored.record.vector()[None, :]))
        matrix.flags.writeable = False
        self._views[key] = (records, matrix)

    def _view_swap(
        self, owner: int, region: Region, old: NodeRecord, new: NodeRecord
    ) -> None:
        """``new`` replaces ``old`` in the ``(owner, region)`` view, if built."""
        key = (owner, region)
        view = self._views.get(key)
        if view is None:
            return
        if old.landmark_vector != new.landmark_vector:
            del self._views[key]  # its matrix row moved too
            return
        records = view[0]
        # by identity: list.index would run NodeRecord's field-by-field __eq__
        records[list(map(id, records)).index(id(old))] = new

    def _reassign_hosted(self, changed_id: int) -> None:
        """Re-resolve owner-index entries attributed to ``changed_id``.

        The reverse index names exactly the entries that can move, so
        the cost of a zone event is proportional to the changed node's
        hosted records, not the store size.  Positions still inside one
        of the node's zones keep their attribution without an owner
        walk; positions that moved (or whose host departed) are
        re-resolved against the fresh tessellation.
        """
        by_region = self._attributed.get(changed_id)
        if not by_region:
            return
        node = self.ecan.can.nodes.get(changed_id)
        owner_of = self.ecan.can.owner_of_point
        for region, shard in list(by_region.items()):
            bucket = self.maps.get(region, {})
            for node_id in list(shard):
                stored = bucket.get(node_id)
                if stored is None:  # defensive: index out of step with map
                    self._attribution_drop(changed_id, region, node_id)
                    continue
                if node is not None and node.contains(stored.position):
                    continue
                self._index_insert(region, node_id, owner_of(stored.position))

    def _collect_shard(self, owner: int, region: Region) -> list:
        """Records attributed to ``(owner, region)``, in ``seq`` order."""
        shard = self._attributed.get(owner, {}).get(region)
        if not shard:
            return []
        bucket = self.maps.get(region, {})
        found = [stored for nid in shard if (stored := bucket.get(nid)) is not None]
        found.sort(key=lambda s: s.seq)
        return [s.record for s in found]

    def _shard_view(self, owner: int, region: Region):
        """Cached ``(records, matrix)`` of one shard; None when it is empty."""
        key = (owner, region)
        view = self._views.get(key)
        if view is None:
            records = self._collect_shard(owner, region)
            if not records:
                return None
            matrix = np.array([r.vector() for r in records])
            matrix.flags.writeable = False
            view = self._views[key] = (records, matrix)
        return view

    # -- internals ---------------------------------------------------------

    @property
    def clock(self):
        return self.network.clock

    def _emit(self, kind: EventKind, region: Region, record: NodeRecord) -> None:
        event = MapEvent(kind, region, record)
        for hook in self.hooks:
            hook(event)

    def _charge_route(self, src_node: int, position, category: str) -> int:
        """Route an overlay message and return the serving node."""
        if src_node in self.ecan.can.nodes:
            result = self.ecan.route(src_node, position, category=category)
            if result.success:
                return result.owner
        # degraded path: the message is delivered by direct owner lookup
        # (models retry through a bootstrap node); charge a single hop.
        self.network.stats.count(category)
        return self.ecan.can.owner_of_point(position)

    def position_of(self, record: NodeRecord, region: Region) -> tuple:
        return map_position(
            record.landmark_number,
            self.space.total_bits,
            region,
            self.ecan.can.dims,
            self.condense_rate,
        )

    def replica_positions(self, record: NodeRecord, region: Region) -> tuple:
        """Positions of the record's extra copies inside ``region``.

        Replica ``r`` sits at the primary position translated by
        ``r/R`` of the region's side in every dimension, wrapping
        inside the region.  A *geometric* offset is essential: the
        condense rate squeezes the whole map into one small sub-box,
        so any placement through :func:`map_position` (whatever the
        landmark number) lands in that same box -- usually on the very
        node whose crash replication must survive.  Spreading copies
        around the region torus puts them in different zones, hence on
        different hosting nodes.  Still a pure function of
        ``(record, region)``, so lookups and repair agree on placement
        under any tessellation.
        """
        if self.replication_factor <= 1:
            return ()
        primary = self.position_of(record, region)
        zone = region.zone()
        out = []
        for r in range(1, self.replication_factor):
            fraction = r / self.replication_factor
            out.append(
                tuple(
                    lo + ((p - lo) + fraction * (hi - lo)) % (hi - lo)
                    for p, lo, hi in zip(primary, zone.lo, zone.hi)
                )
            )
        return tuple(out)

    def record_owner(self, region: Region, node_id: int) -> int:
        """Owner of the record's primary copy, served from the index."""
        return self.maps[region][node_id].owner

    def copy_hosts(self, region: Region, node_id: int) -> list:
        """Overlay nodes hosting each copy (primary first) of a record."""
        stored = self.maps[region][node_id]
        return self.ecan.can.owners_of_points(
            (stored.position, *stored.replicas)
        )

    # -- identity ------------------------------------------------------------

    def register_identity(
        self, node_id: int, host: int, landmark_vector, capacity: float = 1.0
    ) -> NodeRecord:
        """Create (without publishing) a node's own record."""
        vector = tuple(float(x) for x in landmark_vector)
        record = NodeRecord(
            node_id=node_id,
            host=host,
            landmark_vector=vector,
            landmark_number=self.space.number(np.asarray(vector)),
            capacity=capacity,
            published_at=self.clock.now,
            expires_at=self.clock.now + self.record_ttl,
        )
        self.registry[node_id] = record
        return record

    # -- publish / withdraw -----------------------------------------------------

    def current_regions(self, node_id: int) -> list:
        """Regions whose maps should hold ``node_id``'s record now."""
        node = self.ecan.can.nodes.get(node_id)
        if node is None:
            return []
        regions = []
        for zone in node.zones:
            regions.extend(regions_of_zone(zone))
        return regions

    def publish(self, node_id: int) -> int:
        """Insert/refresh the node's record in all enclosing region maps.

        Returns the number of regions written.  Also reconciles stale
        placements: maps of regions that no longer enclose the node's
        zone are cleaned up.
        """
        record = self.registry.get(node_id)
        if record is None:
            raise KeyError(f"node {node_id} has no registered identity")
        record = record.refreshed(self.clock.now, self.record_ttl)
        self.registry[node_id] = record

        wanted = set(self.current_regions(node_id))
        have = self._published.get(node_id, set())
        for region in have - wanted:
            self._remove_from(region, node_id, EventKind.NODE_LEFT, charge=False)
        for region in sorted(wanted, key=lambda r: r.level):
            position = self.position_of(record, region)
            replicas = self.replica_positions(record, region)
            bucket = self.maps.setdefault(region, {})
            prior = bucket.get(node_id)
            fresh = prior is None
            if fresh:
                seq = self._seq.get(region, 0)
                self._seq[region] = seq + 1
            else:
                seq = prior.seq
            bucket[node_id] = StoredRecord(
                record=record,
                position=position,
                replicas=replicas,
                seq=seq,
                owner=None if fresh else prior.owner,
            )
            self._index_insert(
                region,
                node_id,
                self.ecan.can.owner_of_point(position),
                None if fresh else prior.record,
            )
            self._charge_route(node_id, position, "softstate_publish")
            for replica in replicas:
                self._charge_route(node_id, replica, "softstate_replicate")
            if fresh:
                self._emit(EventKind.NODE_JOINED, region, record)
        self._published[node_id] = wanted
        if wanted:
            self.network.telemetry.count("publish", len(wanted))
        return len(wanted)

    @contextlib.contextmanager
    def bulk_load(self):
        """Defer republish-on-zone-change for a batched mass join.

        Growing the overlay one join at a time republishes the split
        owner's record on *every* zone change, so building N members
        costs O(N) incremental republish cascades against intermediate
        tessellations that are all about to be invalidated.  Inside
        this context a zone change only marks the affected owner
        dirty; on clean exit every dirty node still registered and
        still a member publishes exactly once against the final
        tessellation.  The position->owner index keeps updating
        incrementally throughout, so reads inside the context stay
        consistent with whatever *is* in the maps.  Yields the dirty
        set -- callers add freshly registered nodes to it so their
        first publish is batched too.  Does not nest.
        """
        if self._deferred is not None:
            raise RuntimeError("bulk_load does not nest")
        self._deferred = set()
        try:
            yield self._deferred
            dirty, self._deferred = self._deferred, None
            members = self.ecan.can.nodes
            for node_id in sorted(dirty):
                if node_id in self.registry and node_id in members:
                    self.publish(node_id)
        finally:
            self._deferred = None

    def withdraw(self, node_id: int, charge: bool = True) -> int:
        """Remove the node's record from every map (proactive departure)."""
        regions = self._published.pop(node_id, set())
        for region in regions:
            if charge:
                self.network.stats.count("softstate_withdraw")
            self._remove_from(region, node_id, EventKind.NODE_LEFT, charge=False)
        self.registry.pop(node_id, None)
        return len(regions)

    def purge_record(self, node_id: int, charge: bool = True) -> int:
        """Drop a (dead) node's records, e.g. on reactive maintenance."""
        regions = self._published.pop(node_id, set())
        removed = 0
        for region in list(regions):
            removed += self._remove_from(
                region, node_id, EventKind.RECORD_EXPIRED, charge=charge
            )
        self.registry.pop(node_id, None)
        return removed

    def _remove_from(
        self, region: Region, node_id: int, kind: EventKind, charge: bool
    ) -> int:
        bucket = self.maps.get(region)
        if bucket is None:
            return 0
        stored = bucket.pop(node_id, None)
        if stored is None:
            return 0
        self._attribution_drop(stored.owner, region, node_id)
        if not bucket:
            del self.maps[region]
        if charge:
            self.network.stats.count("softstate_withdraw")
        self._emit(kind, region, stored.record)
        return 1

    def update_load(self, node_id: int, load: float) -> None:
        """Publish fresh load statistics to every map holding the node."""
        record = self.registry.get(node_id)
        if record is None:
            raise KeyError(f"node {node_id} has no registered identity")
        record = record.with_load(load)
        self.registry[node_id] = record
        for region in self._published.get(node_id, ()):
            bucket = self.maps.get(region, {})
            stored = bucket.get(node_id)
            if stored is None:
                continue
            replaced, stored.record = stored.record, record
            # the one mutation that reaches a shard without passing the index
            self._view_swap(stored.owner, region, replaced, record)
            self.network.stats.count("softstate_load_update")
            self._emit(EventKind.LOAD_UPDATED, region, record)

    # -- expiry -----------------------------------------------------------------

    def expire_stale(self) -> int:
        """Drop every record whose lease has lapsed (soft-state decay)."""
        now = self.clock.now
        removed = 0
        for region in list(self.maps):
            bucket = self.maps[region]
            for node_id in [n for n, s in bucket.items() if s.record.is_expired(now)]:
                self._published.get(node_id, set()).discard(region)
                removed += self._remove_from(
                    region, node_id, EventKind.RECORD_EXPIRED, charge=False
                )
        return removed

    # -- crash durability --------------------------------------------------------

    def drop_hosted_by(self, dead_id: int) -> tuple:
        """A member crash-stopped: every map copy it hosted vanishes.

        Called at *crash time* (the zones are still the corpse's --
        takeover has not run yet).  A record whose copies all lived on
        ``dead_id`` is removed outright and queued in
        :attr:`lost_records`; a record with a surviving replica stays
        in the map and is queued for :meth:`rehost_from_replicas`.
        Returns ``(salvageable, lost)`` lists of ``(region, node_id)``.
        """
        salvageable, lost = [], []
        owners_of = self.ecan.can.owners_of_points
        faults = getattr(self.network, "faults", None)
        crashed_hosts = faults.crashed_hosts if faults is not None else set()

        def copy_dead(owner: int) -> bool:
            # a copy is gone when its host crashed -- this corpse or an
            # earlier one of the same mass-crash
            if owner == dead_id:
                return True
            node = self.ecan.can.nodes.get(owner)
            return node is None or node.host in crashed_hosts

        for region in list(self.maps):
            bucket = self.maps[region]
            for node_id in list(bucket):
                stored = bucket[node_id]
                owners = owners_of((stored.position, *stored.replicas))
                if dead_id not in owners:
                    continue
                if all(copy_dead(owner) for owner in owners):
                    self._published.get(node_id, set()).discard(region)
                    self._remove_from(
                        region, node_id, EventKind.RECORD_EXPIRED, charge=False
                    )
                    lost.append((region, node_id))
                else:
                    vacated = tuple(
                        p
                        for p, owner in zip(
                            (stored.position, *stored.replicas), owners
                        )
                        if owner == dead_id
                    )
                    salvageable.append((region, node_id, vacated))
        if salvageable:
            self._pending_rehost.setdefault(dead_id, []).extend(salvageable)
        self.lost_records.extend(lost)
        if salvageable or lost:
            self.network.telemetry.count("record_loss")
        return salvageable, lost

    def rehost_from_replicas(self, dead_id: int) -> int:
        """Re-host copies lost with ``dead_id`` from surviving replicas.

        Run by recovery *after* zone takeover, when the dead node's
        positions are owned by live takers again: a surviving copy's
        host routes the record back to each vacated position, charged
        as ``softstate_rehost`` traffic.  Returns copies re-hosted.
        """
        pending = self._pending_rehost.pop(dead_id, [])
        rehosted = 0
        owner_of = self.ecan.can.owner_of_point
        faults = getattr(self.network, "faults", None)
        crashed_hosts = faults.crashed_hosts if faults is not None else set()
        for region, node_id, vacated in pending:
            stored = self.maps.get(region, {}).get(node_id)
            if stored is None:
                continue  # withdrawn or purged in the meantime
            src = node_id
            for p in (stored.position, *stored.replicas):
                if p in vacated:
                    continue
                owner = owner_of(p)
                node = self.ecan.can.nodes.get(owner)
                if node is not None and node.host not in crashed_hosts:
                    src = owner  # a live surviving copy pushes the data
                    break
            for position in vacated:
                self._charge_route(src, position, "softstate_rehost")
                rehosted += 1
        return rehosted

    def republish_lost(self) -> list:
        """Still-live subjects of crash-lost records re-publish them --
        soft-state durability's last line of defence.  Returns the
        subject ids restored, each charged as a publish plus one
        ``recovery_republish`` count.

        Only records in the crash-loss ledger (:attr:`lost_records`)
        qualify: a record purged by *lease expiry* must stay gone until
        its subject refreshes it, not be resurrected by a sweep.
        """
        members = self.ecan.can.nodes
        restored = []
        for node_id in sorted({n for _, n in self.lost_records}):
            if node_id in members and self.missing_regions(node_id):
                self.publish(node_id)
                self.network.stats.count("recovery_republish")
                restored.append(node_id)
        self.lost_records = [
            (region, n)
            for region, n in self.lost_records
            if n in members and self.missing_regions(n)
        ]
        return restored

    def missing_regions(self, node_id: int) -> list:
        """Regions that should hold the node's record but do not.

        Non-empty when copies were lost with a crashed host (and no
        replica survived); the subject re-publishes on the next
        maintenance sweep or reconciliation pass.
        """
        if node_id not in self.registry:
            return []
        return [
            region
            for region in self.current_regions(node_id)
            if node_id not in self.maps.get(region, {})
        ]

    # -- lookup (the paper's Table 1) ----------------------------------------------

    def lookup(
        self,
        querier_id: int,
        region: Region,
        max_results: int = MAX_RESULTS,
        charge: bool = True,
    ) -> LookupResult:
        """Find the closest candidates to ``querier_id`` in ``region``.

        Procedure: map the querier's landmark number into the region,
        route there, read the map entries hosted by the serving node;
        if that shard is empty, widen ring by ring over the region's
        nodes up to :data:`WIDEN_TTL` hops.  The serving node sorts the
        entries by full-landmark-vector distance and returns the top
        ``max_results``.
        """
        own = self.registry.get(querier_id)
        if own is None:
            raise KeyError(f"querier {querier_id} has no registered identity")
        query_vector = own.vector()

        position = map_position(
            # the landmark number is cached on the registered identity --
            # a pure function of the vector and the space
            own.landmark_number,
            self.space.total_bits,
            region,
            self.ecan.can.dims,
            self.condense_rate,
        )
        category = "softstate_lookup" if charge else None
        if charge:
            served_by = self._charge_route(querier_id, position, category)
        else:
            served_by = self.ecan.can.owner_of_point(position)

        # zero owner walks and no bucket scan: the reverse index yields
        # exactly the asked-for node's records, in bucket insertion
        # order (seq), at cost proportional to what that node hosts
        # rather than to the region's map size
        view = self._shard_view(served_by, region)
        if view is not None:
            # the common case, no widening: rank straight off the
            # cached matrix.  Same arithmetic as the norm below;
            # sorting before dropping the querier's own row (a
            # shard holds at most one) keeps the others' stable
            # relative order, so one spare candidate suffices.
            records, matrix = view
            delta = matrix - query_vector
            order = np.sqrt(np.add.reduce(delta * delta, axis=1)).argsort(
                kind="stable"
            )
            ranked = [
                record
                for i in order[: max_results + 1].tolist()
                if (record := records[i]).node_id != querier_id
            ]
            return LookupResult(records=ranked[:max_results], served_by=served_by)

        # the first shard is empty (a None view means exactly that):
        # widen within the region, ring by ring over CAN neighbors
        collected = []
        widened = 0
        region_zone = region.zone()
        visited = {served_by}
        frontier = [served_by]
        while not collected and widened < WIDEN_TTL and frontier:
            widened += 1
            next_frontier = []
            for node_id in frontier:
                node = self.ecan.can.nodes.get(node_id)
                if node is None:
                    continue
                for neighbor_id in sorted(node.neighbors):
                    if neighbor_id in visited:
                        continue
                    neighbor = self.ecan.can.nodes[neighbor_id]
                    inside = any(
                        all(
                            zl < h and l < zh
                            for zl, zh, l, h in zip(
                                z.lo, z.hi, region_zone.lo, region_zone.hi
                            )
                        )
                        for z in neighbor.zones
                    )
                    if not inside:
                        continue
                    visited.add(neighbor_id)
                    next_frontier.append(neighbor_id)
                    if charge:
                        self.network.stats.count("softstate_lookup")
                    collected.extend(self._collect_shard(neighbor_id, region))
            frontier = next_frontier

        collected = [r for r in collected if r.node_id != querier_id]
        if collected:
            vectors = np.array([r.vector() for r in collected])
            order = np.argsort(np.linalg.norm(vectors - query_vector, axis=1), kind="stable")
            collected = [collected[i] for i in order[:max_results]]
        return LookupResult(records=collected, served_by=served_by, widened=widened)

    def slot_records(self, node_id: int, slot, limit: int) -> list:
        """The ``limit`` records of expressway slot ``(level, cell)``
        closest to ``node_id`` in landmark space (never its own): one
        charged :meth:`lookup` of the sibling zone's map."""
        level, cell = slot
        return self.lookup(node_id, Region(level, cell), max_results=limit).records

    # -- diagnostics -------------------------------------------------------------

    def entries_per_node(self) -> dict:
        """Map entries hosted per overlay node (Figure 16's dashed line)."""
        counts: dict = {}
        for region, bucket in self.maps.items():
            for node_id in bucket:
                owner = self.record_owner(region, node_id)
                counts[owner] = counts.get(owner, 0) + 1
        return counts

    def check_owner_index(self) -> None:
        """AssertionError unless the incremental index matches brute force.

        Cross-checks every indexed attribution against a fresh
        ``owner_of_point`` walk over the live tessellation; run from the
        stack-wide :func:`repro.core.recovery.check_invariants`.
        """
        owner_of = self.ecan.can._resolve_owner
        for region, bucket in self.maps.items():
            for node_id, stored in bucket.items():
                expected = owner_of(stored.position)
                assert stored.owner == expected, (
                    f"owner index of {region} attributes record {node_id} "
                    f"to {stored.owner}, brute force says {expected}"
                )
                assert node_id in self._attributed.get(expected, {}).get(region, ()), (
                    f"reverse index misses ({region}, {node_id}) under {expected}"
                )
        total = sum(len(b) for b in self.maps.values())
        reverse = sum(
            len(shard)
            for by_region in self._attributed.values()
            for shard in by_region.values()
        )
        assert reverse == total, (
            f"reverse index holds {reverse} attributions, maps hold {total}"
        )
        for (owner, region), (records, matrix) in self._views.items():
            fresh = self._collect_shard(owner, region)
            assert len(records) == len(fresh) and all(
                a is b for a, b in zip(records, fresh)
            ), f"shard view of ({owner}, {region}) is out of step with the map"
            assert np.array_equal(matrix, np.array([r.vector() for r in fresh])), (
                f"shard view of ({owner}, {region}) caches a stale matrix"
            )

    def rebuild_owner_index(self) -> int:
        """Recompute the position->owner index from scratch; return fixes.

        The anti-entropy repair for an arbitrarily corrupted (poisoned)
        index: both the forward and the reverse side are rebuilt from
        the authoritative map contents against the live tessellation,
        which restores the invariant :meth:`check_owner_index` asserts
        no matter what state the index was left in.  Purely local
        data-structure work, never charged.  Returns the number of
        attributions that changed.
        """
        self._attributed = {}
        self._views = {}
        owner_of = self.ecan.can.owner_of_point
        changed = 0
        for region, bucket in self.maps.items():
            for node_id, stored in bucket.items():
                owner = owner_of(stored.position)
                if stored.owner != owner:
                    changed += 1
                # the reverse side was just emptied: nothing to drop there
                stored.owner = None
                self._index_insert(region, node_id, owner)
        return changed

    def total_entries(self) -> int:
        return sum(len(bucket) for bucket in self.maps.values())
