"""The cached shard views behind ``lookup``.

A view is a per-``(owner, region)`` copy of what the reverse index
already says (records in ``seq`` order plus their stacked landmark
matrix), so it may never answer differently from a fresh collection.
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
        key, (records, matrix) = next(iter(viewed.store._views.items()))
        viewed.store._views[key] = (records[::-1] + records[:1], matrix)
        with pytest.raises(AssertionError, match="shard view"):
            viewed.store.check_owner_index()


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


def assert_caches_rederive(overlay) -> None:
    """Every cached shard view equals a fresh ``_collect_shard`` (records
    by identity and order, matrix by value), every owner-memo entry a
    fresh ``_resolve_owner``, and the whole legitimacy predicate holds."""
    check_invariants(overlay)
    store = overlay.store
    for (owner, region), (records, matrix) in store._views.items():
        fresh = store._collect_shard(owner, region)
        assert len(records) == len(fresh)
        assert all(a is b for a, b in zip(records, fresh)), (owner, region)
        assert np.array_equal(matrix, np.array([r.vector() for r in fresh]))
    can = overlay.ecan.can
    for point, owner in can._owner_memo.items():
        assert owner == can._resolve_owner(point), point


class TestCachesFollowAnySequence:
    """Views and the owner memo are updated in place by whatever changed;
    after any interleaving of mutators and reads they still re-derive."""

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
        for step, pick in steps:
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
            # charged reads after every step build the views the next
            # step's mutation must keep current
            querier = [n for n in overlay.node_ids if n in store.registry][0]
            for region in regions(overlay):
                store.lookup(querier, region)
            if step == "lookup":
                overlay.ecan.route(member, overlay.ecan.can.random_point())
            assert_caches_rederive(overlay)
