"""The cached shard views behind ``lookup``.

A view is a per-``(owner, region)`` copy of what the reverse index
already says (records in ``seq`` order plus their stacked landmark
matrix) and of the orders that matrix served each querier vector, so
it may never answer differently from a fresh collection and ranking.
After every kind of store mutation ``check_owner_index`` (the
legitimacy predicate's store half) is the oracle: it re-resolves each
attribution against the live tessellation and re-derives every live
view from ``maps`` + ``_attributed`` by record identity, order and
matrix value -- before the reads (nothing stale survived the mutation)
and after them (what the reads built is right).
"""

import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.softstate.store as store_module
from repro.core import OverlayParams, TopologyAwareOverlay
from repro.core.recovery import check_invariants
from repro.core.soak import inject_corruption
from repro.netsim import ManualLatencyModel, Network
from repro.netsim.faults import FaultPlan
from repro.softstate.maps import Region

N = 64


def grow(topology, **params) -> TopologyAwareOverlay:
    network = Network(topology, ManualLatencyModel())
    overlay = TopologyAwareOverlay(
        network, OverlayParams(num_nodes=N, landmarks=6, seed=13, **params)
    )
    overlay.build()
    return overlay


@pytest.fixture
def viewed(tiny_topology):
    return grow(tiny_topology)


def regions(overlay) -> list:
    """Every level-1 and level-2 region."""
    return [
        Region(level, cell)
        for level in (1, 2)
        for cell in itertools.product(range(1 << level), repeat=overlay.ecan.dims)
    ]


def assert_views_rederive(viewed, queriers=8) -> None:
    """The index and every view re-derive from the maps, before and
    after every (querier, region) read; each read serves the live
    record objects."""
    store = viewed.store
    store.check_owner_index()
    for querier in viewed.node_ids[:queriers]:
        for region in regions(viewed):
            for record in store.lookup(querier, region, charge=False).records:
                assert record is store.maps[region][record.node_id].record
    assert store._views, "no lookup went through a shard view"
    store.check_owner_index()


class TestViewsFollowEveryMutator:
    def test_publish_refresh(self, viewed):
        assert_views_rederive(viewed)
        viewed.network.clock.advance(10.0)
        for node_id in viewed.node_ids[::3]:
            viewed.store.publish(node_id)
        # a refreshed record is a new object: a view must not serve the
        # old one (the helper compares record identity)
        assert_views_rederive(viewed)

    def test_withdraw_and_purge(self, viewed):
        assert_views_rederive(viewed)
        viewed.store.withdraw(viewed.node_ids[20])
        viewed.store.purge_record(viewed.node_ids[25])
        assert_views_rederive(viewed)

    def test_expire_stale(self, tiny_topology):
        viewed = grow(tiny_topology, record_ttl=100.0)
        assert_views_rederive(viewed)
        viewed.network.clock.advance(60.0)
        for node_id in viewed.node_ids[::2]:
            viewed.store.publish(node_id)  # half the leases renewed
        viewed.network.clock.advance(60.0)
        assert viewed.store.expire_stale() > 0
        assert_views_rederive(viewed)

    def test_update_load(self, viewed):
        assert_views_rederive(viewed)
        for i, node_id in enumerate(viewed.node_ids[:20]):
            viewed.store.update_load(node_id, 0.25 * (i + 1))
        # update_load swaps the record object under a live view: the
        # helper's identity check is what proves reads see the new load
        assert_views_rederive(viewed)

    def test_leave_and_join(self, viewed):
        assert_views_rederive(viewed)
        viewed.remove_node(viewed.node_ids[3], graceful=True)
        viewed.remove_node(viewed.node_ids[11], graceful=False)
        viewed.add_node()
        assert_views_rederive(viewed)

    def test_crash_takeover_and_rehost(self, tiny_topology):
        viewed = grow(tiny_topology, replication_factor=2)
        assert_views_rederive(viewed)
        viewed.arm_faults(FaultPlan(), seed=1)
        viewed.enable_recovery()
        victim = viewed.node_ids[7]
        viewed.crash_node(victim)  # drop_hosted_by
        # takeover_dead, purge_record, rehost_from_replicas
        viewed.recovery.handle_death(victim)
        viewed.disable_recovery()
        viewed.disarm_faults()
        assert_views_rederive(viewed)

    def test_poisoned_index_and_its_repair(self, viewed):
        assert_views_rederive(viewed)
        poisoned = inject_corruption(
            viewed, "poison_owner_index", np.random.default_rng(4)
        )
        assert poisoned > 0
        # the poison went through _index_insert, so no view outlived it;
        # views built now mirror the poisoned index and are caught with it
        for querier in viewed.node_ids[:4]:
            for region in regions(viewed):
                viewed.store.lookup(querier, region, charge=False)
        with pytest.raises(AssertionError):
            viewed.store.check_owner_index()
        assert viewed.store.rebuild_owner_index() > 0
        assert not viewed.store._views
        assert_views_rederive(viewed)

    def test_a_tampered_view_fails_the_predicate(self, viewed):
        region = Region(1, (0, 0))
        viewed.store.lookup(viewed.node_ids[0], region, charge=False)
        key, (records, matrix, orders) = next(iter(viewed.store._views.items()))
        viewed.store._views[key] = (records[::-1] + records[:1], matrix, orders)
        with pytest.raises(AssertionError, match="shard view"):
            viewed.store.check_owner_index()

    def test_a_forged_remembered_order_fails_the_predicate(self, viewed):
        store = viewed.store
        querier = viewed.node_ids[0]
        for region in regions(viewed):
            store.lookup(querier, region, charge=False)
        orders = next(
            orders
            for records, _, orders in store._views.values()
            if len(records) >= 3 and orders
        )
        key, (vector, top) = next(iter(orders.items()))
        store.check_owner_index()
        orders[key] = (vector, top[1::-1] + top[2:])
        with pytest.raises(AssertionError, match="shard view"):
            check_invariants(viewed)


def reference_order(store, served_by, region, querier_id, vector, limit):
    """A fresh ranking of the served shard, by the norm itself."""
    shard = store._collect_shard(served_by, region)
    matrix = np.array([r.vector() for r in shard])
    order = np.argsort(np.linalg.norm(matrix - vector, axis=1), kind="stable")
    return [shard[i] for i in order if shard[i].node_id != querier_id][:limit]


class TestRememberedOrders:
    def test_rank_runs_once_per_querier_and_matrix(self, viewed, monkeypatch):
        """First read ranks, a repeat does not; a refresh (same vector,
        same row) keeps the order; a first insert (a new row) re-ranks."""
        store = viewed.store
        ranked = []
        rank = store_module._rank

        def spy(matrix, vector, limit):
            ranked.append(limit)
            return rank(matrix, vector, limit)

        monkeypatch.setattr(store_module, "_rank", spy)
        querier = viewed.node_ids[0]
        for region in regions(viewed):
            served_by = store.lookup(querier, region, charge=False).served_by
            view = store._views.get((served_by, region))  # None: it widened
            if view is not None and len(view[0]) >= 3:
                break
        records = view[0]
        ranked.clear()
        first = store.lookup(querier, region, charge=False)
        again = store.lookup(querier, region, charge=False)
        assert ranked == [] and again.records == first.records

        viewed.network.clock.advance(10.0)
        for record in [*records, store.registry[querier]]:
            store.publish(record.node_id)
        refreshed = store.lookup(querier, region, charge=False)
        assert ranked == []
        assert [r.node_id for r in refreshed.records] == [
            r.node_id for r in first.records
        ]
        for record in refreshed.records:
            assert record is store.maps[region][record.node_id].record
            assert record.published_at == viewed.network.clock.now

        mover = next(r for r in records if r.node_id != querier)
        store.withdraw(mover.node_id)
        store.lookup(querier, region, charge=False)
        assert ranked == [store_module.MAX_RESULTS + 1]
        rows = len(store._views[(served_by, region)][1])
        store.register_identity(mover.node_id, mover.host, mover.landmark_vector)
        store.publish(mover.node_id)
        records, matrix, orders = store._views[(served_by, region)]
        assert len(matrix) == rows + 1 and records[-1].node_id == mover.node_id
        assert orders == {}
        result = store.lookup(querier, region, charge=False)
        assert ranked == [store_module.MAX_RESULTS + 1] * 2
        assert result.records == reference_order(
            store, served_by, region, querier,
            store.registry[querier].vector(), store_module.MAX_RESULTS,
        )
        store.check_owner_index()

    def test_a_reregistered_querier_is_ranked_afresh(self, viewed):
        """A new vector under the same id (same index prefix, so the same
        landmark number and serving node) is never served the old order."""
        store = viewed.store
        prefix = store.space.index_dims
        for querier, region in itertools.product(viewed.node_ids, regions(viewed)):
            old = store.registry[querier]
            first = store.lookup(querier, region, charge=False)
            if first.widened or len(first.records) < 2:
                continue
            far = first.records[-1].landmark_vector
            vector = old.landmark_vector[:prefix] + far[prefix:]
            fresh = reference_order(
                store, first.served_by, region, querier,
                np.asarray(vector), store_module.MAX_RESULTS,
            )
            if fresh == first.records:
                continue
            renewed = store.register_identity(querier, old.host, vector)
            assert renewed.landmark_number == old.landmark_number
            again = store.lookup(querier, region, charge=False)
            assert again.served_by == first.served_by
            assert again.records == fresh
            store.check_owner_index()
            return
        pytest.fail("no tail change reordered any read")


class TestEdges:
    def test_max_results_zero(self, viewed):
        region = Region(1, (0, 0))
        querier = viewed.node_ids[0]
        assert viewed.store.lookup(querier, region, max_results=0).records == []

    def test_shard_holding_only_the_querier(self, viewed):
        store = viewed.store
        querier = viewed.node_ids[0]
        region = store.current_regions(querier)[0]
        for node_id in list(store.maps[region]):
            if node_id != querier:
                store.withdraw(node_id)
        # the querier's own record sits exactly where its lookup lands
        result = store.lookup(querier, region)
        assert result.served_by == store.record_owner(region, querier)
        assert result.records == []
        assert result.widened == 0

    def test_widening_read(self, viewed):
        """A lookup whose first shard is empty reads its neighbours' shards:
        what comes back is hosted inside the region by nodes other than
        the serving one, nearest first."""
        store = viewed.store
        widened = 0
        for querier in viewed.node_ids:
            own = np.asarray(store.registry[querier].landmark_vector)
            for level in (2, 3):
                zone = viewed.ecan.can.nodes[querier].zone
                if zone.max_level < level:
                    continue
                # spread the map over the whole region so the querier's
                # position usually lands on a node that hosts nothing
                region = Region(level, zone.cell(level))
                store.condense_rate = 1.0
                result = store.lookup(querier, region, charge=False)
                store.condense_rate = 1.0 / 16.0
                if not result.widened:
                    continue
                assert store._collect_shard(result.served_by, region) == []
                distances = []
                for record in result.records:
                    assert record.node_id != querier
                    assert record is store.maps[region][record.node_id].record
                    assert store.record_owner(region, record.node_id) != result.served_by
                    distances.append(float(np.linalg.norm(record.vector() - own)))
                assert distances == sorted(distances)
                widened += bool(result.records)
        assert widened, "no lookup exercised a widening read that found records"


#: the mutators and reads one sequence step may apply
STEPS = (
    "join", "publish", "refresh", "update_load", "withdraw",
    "expire", "leave", "crash", "lookup",
)


#: a point no step resolves, planted in the owner memo around each step
SENTINEL = (0.3141592653589793, 0.2718281828459045)


def assert_caches_rederive(overlay) -> None:
    """Every cached shard view equals a fresh ``_collect_shard`` (records
    by identity and order, matrix by value, each remembered order by a
    fresh norm ranking), the whole legitimacy predicate holds, and it
    fails on a planted stale owner-memo entry."""
    check_invariants(overlay)
    store = overlay.store
    for (owner, region), (records, matrix, orders) in store._views.items():
        fresh = store._collect_shard(owner, region)
        assert len(records) == len(fresh)
        assert all(a is b for a, b in zip(records, fresh)), (owner, region)
        assert np.array_equal(matrix, np.array([r.vector() for r in fresh]))
        for (_, max_results), (vector, top) in orders.items():
            order = np.argsort(np.linalg.norm(matrix - vector, axis=1), kind="stable")
            assert top == order[: max_results + 1].tolist(), (owner, region)
    can = overlay.ecan.can
    owner = can._resolve_owner(SENTINEL)
    can._owner_memo[SENTINEL] = min(n for n in can.nodes if n != owner)
    with pytest.raises(AssertionError, match="owner memo says"):
        check_invariants(overlay)
    del can._owner_memo[SENTINEL]


class TestCachesFollowAnySequence:
    """Views are updated in place by whatever changed and the owner memo
    is emptied by any zone (un)index; after any interleaving of mutators
    and reads they still re-derive."""

    @given(
        st.lists(
            st.tuples(st.sampled_from(STEPS), st.integers(0, 1 << 16)),
            min_size=4,
            max_size=24,
        )
    )
    @settings(
        max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    def test_views_and_memo_rederive_after_every_step(self, tiny_topology, steps):
        network = Network(tiny_topology, ManualLatencyModel())
        overlay = TopologyAwareOverlay(
            network, OverlayParams(num_nodes=48, landmarks=6, seed=13, record_ttl=50.0)
        )
        overlay.build()
        store = overlay.store
        withdrawn = {}  # node id -> its record, until it publishes again
        can = overlay.ecan.can
        for step, pick in steps:
            # a correct entry now, which any zone (un)index must drop
            version = can.zone_version
            can._owner_memo[SENTINEL] = can._resolve_owner(SENTINEL)
            registered = [n for n in overlay.node_ids if n in store.registry]
            member = registered[pick % len(registered)]
            if step == "join":
                overlay.add_node()
            elif step == "publish":
                if withdrawn:
                    node_id = sorted(withdrawn)[pick % len(withdrawn)]
                    old = withdrawn.pop(node_id)
                    store.register_identity(node_id, old.host, old.landmark_vector)
                    store.publish(node_id)
                else:
                    store.publish(member)
            elif step == "refresh":
                network.clock.advance(20.0)
                store.publish(member)
            elif step == "update_load":
                store.update_load(member, 0.125 * (pick % 17))
            elif step == "withdraw" and len(registered) > 8:
                withdrawn[member] = store.registry[member]
                store.withdraw(member)
            elif step == "expire":
                network.clock.advance(30.0)
                store.expire_stale()
            elif step == "leave" and len(overlay) > 16:
                overlay.remove_node(member, graceful=True)
                # tables repair lazily; the predicate wants no dead entry
                overlay.ecan.invalidate_member(member)
            elif step == "crash" and len(overlay) > 16:
                overlay.arm_faults(FaultPlan(), seed=pick)
                overlay.enable_recovery()
                overlay.crash_node(member)
                overlay.recovery.handle_death(member)
                overlay.disable_recovery()
                overlay.disarm_faults()
            withdrawn = {n: r for n, r in withdrawn.items() if n in overlay.ecan.nodes}
            if can.zone_version != version:
                assert SENTINEL not in can._owner_memo, step
            can._owner_memo.pop(SENTINEL, None)
            # charged reads after every step build the views the next
            # step's mutation must keep current
            querier = [n for n in overlay.node_ids if n in store.registry][0]
            for region in regions(overlay):
                store.lookup(querier, region)
                store.lookup(querier, region, max_results=4)
            if step == "lookup":
                overlay.ecan.route(member, overlay.ecan.can.random_point())
            assert_caches_rederive(overlay)
