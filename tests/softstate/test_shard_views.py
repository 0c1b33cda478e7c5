"""The cached shard views behind ``lookup``.

A view is a per-``(owner, region)`` copy of what the reverse index
already says (records in ``seq`` order plus their stacked landmark
matrix), so it may never answer differently from a fresh collection.
Two overlays are grown from one seed -- one reading through the
views, its twin brute-forcing every lookup with
``use_owner_index=False`` -- and after every kind of store mutation
their answers must agree in ids *and order*, while
``check_owner_index`` (the legitimacy predicate's store half)
re-derives every live view from ``maps`` + ``_attributed``.
"""

import itertools

import numpy as np
import pytest

from repro.core import OverlayParams, TopologyAwareOverlay
from repro.core.soak import inject_corruption
from repro.netsim import ManualLatencyModel, Network
from repro.netsim.faults import FaultPlan
from repro.softstate.maps import Region

N = 64


def grow(topology, indexed: bool, **params) -> TopologyAwareOverlay:
    network = Network(topology, ManualLatencyModel())
    overlay = TopologyAwareOverlay(
        network, OverlayParams(num_nodes=N, landmarks=6, seed=13, **params)
    )
    overlay.store.use_owner_index = indexed
    overlay.build()
    return overlay


@pytest.fixture
def twins(tiny_topology):
    return grow(tiny_topology, True), grow(tiny_topology, False)


def regions(overlay) -> list:
    """Every level-1 and level-2 region."""
    return [
        Region(level, cell)
        for level in (1, 2)
        for cell in itertools.product(range(1 << level), repeat=overlay.ecan.dims)
    ]


def assert_same_answers(viewed, brute, queriers=8) -> None:
    """Every (querier, region) reads the same on both twins, and the
    viewed twin's caches re-derive from its maps."""
    viewed.store.check_owner_index()
    for querier in viewed.node_ids[:queriers]:
        for region in regions(viewed):
            a = viewed.store.lookup(querier, region, charge=False)
            b = brute.store.lookup(querier, region, charge=False)
            assert [r.node_id for r in a.records] == [r.node_id for r in b.records]
            assert [r.load for r in a.records] == [r.load for r in b.records]
            assert (a.served_by, a.widened) == (b.served_by, b.widened)
    assert viewed.store._views, "no lookup went through a shard view"
    viewed.store.check_owner_index()


class TestViewsFollowEveryMutator:
    def test_publish_refresh(self, twins):
        viewed, brute = twins
        assert_same_answers(viewed, brute)
        for overlay in twins:
            overlay.network.clock.advance(10.0)
            for node_id in overlay.node_ids[::3]:
                overlay.store.publish(node_id)
        assert_same_answers(viewed, brute)
        # a refreshed record is a new object: a view must not serve the old one
        region = Region(1, (0, 0))
        for querier in viewed.node_ids[:8]:
            for record in viewed.store.lookup(querier, region, charge=False).records:
                assert record is viewed.store.maps[region][record.node_id].record

    def test_withdraw_and_purge(self, twins):
        viewed, brute = twins
        assert_same_answers(viewed, brute)
        for overlay in twins:
            overlay.store.withdraw(overlay.node_ids[20])
            overlay.store.purge_record(overlay.node_ids[25])
        assert_same_answers(viewed, brute)

    def test_expire_stale(self, tiny_topology):
        viewed = grow(tiny_topology, True, record_ttl=100.0)
        brute = grow(tiny_topology, False, record_ttl=100.0)
        assert_same_answers(viewed, brute)
        for overlay in (viewed, brute):
            overlay.network.clock.advance(60.0)
            for node_id in overlay.node_ids[::2]:
                overlay.store.publish(node_id)  # half the leases renewed
            overlay.network.clock.advance(60.0)
            assert overlay.store.expire_stale() > 0
        assert_same_answers(viewed, brute)

    def test_update_load(self, twins):
        viewed, brute = twins
        assert_same_answers(viewed, brute)
        for overlay in twins:
            for i, node_id in enumerate(overlay.node_ids[:20]):
                overlay.store.update_load(node_id, 0.25 * (i + 1))
        # loads are compared record by record inside the helper
        assert_same_answers(viewed, brute)

    def test_leave_and_join(self, twins):
        viewed, brute = twins
        assert_same_answers(viewed, brute)
        for overlay in twins:
            overlay.remove_node(overlay.node_ids[3], graceful=True)
            overlay.remove_node(overlay.node_ids[11], graceful=False)
            overlay.add_node()
        assert_same_answers(viewed, brute)

    def test_crash_takeover_and_rehost(self, tiny_topology):
        viewed = grow(tiny_topology, True, replication_factor=2)
        brute = grow(tiny_topology, False, replication_factor=2)
        assert_same_answers(viewed, brute)
        for overlay in (viewed, brute):
            overlay.arm_faults(FaultPlan(), seed=1)
            overlay.enable_recovery()
            victim = overlay.node_ids[7]
            overlay.crash_node(victim)  # drop_hosted_by
            # takeover_dead, purge_record, rehost_from_replicas
            overlay.recovery.handle_death(victim)
            overlay.disable_recovery()
            overlay.disarm_faults()
        assert_same_answers(viewed, brute)

    def test_poisoned_index_and_its_repair(self, twins):
        viewed, brute = twins
        assert_same_answers(viewed, brute)
        poisoned = inject_corruption(
            viewed, "poison_owner_index", np.random.default_rng(4), fraction=0.3
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
        assert_same_answers(viewed, brute)

    def test_a_tampered_view_fails_the_predicate(self, twins):
        viewed, _ = twins
        region = Region(1, (0, 0))
        viewed.store.lookup(viewed.node_ids[0], region, charge=False)
        key, (records, matrix) = next(iter(viewed.store._views.items()))
        viewed.store._views[key] = (records[::-1] + records[:1], matrix)
        with pytest.raises(AssertionError, match="shard view"):
            viewed.store.check_owner_index()


class TestEdges:
    def test_max_results_zero(self, twins):
        viewed, brute = twins
        region = Region(1, (0, 0))
        querier = viewed.node_ids[0]
        assert viewed.store.lookup(querier, region, max_results=0).records == []
        assert brute.store.lookup(querier, region, max_results=0).records == []

    def test_shard_holding_only_the_querier(self, twins):
        for overlay in twins:
            store = overlay.store
            querier = overlay.node_ids[0]
            region = store.current_regions(querier)[0]
            for node_id in list(store.maps[region]):
                if node_id != querier:
                    store.withdraw(node_id)
            # the querier's own record sits exactly where its lookup lands
            result = store.lookup(querier, region)
            assert result.served_by == store.hosting_node(region, querier)
            assert result.records == []
            assert result.widened == 0

    def test_widening_read(self, twins):
        """A lookup whose first shard is empty still agrees with brute force."""
        viewed, brute = twins
        widened = 0
        for querier in viewed.node_ids:
            for level in (2, 3):
                zone = viewed.ecan.can.nodes[querier].zone
                if zone.max_level < level:
                    continue
                # spread the map over the whole region so the querier's
                # position usually lands on a node that hosts nothing
                region = Region(level, zone.cell(level))
                for overlay in twins:
                    overlay.store.condense_rate = 1.0
                a = viewed.store.lookup(querier, region, charge=False)
                b = brute.store.lookup(querier, region, charge=False)
                for overlay in twins:
                    overlay.store.condense_rate = 1.0 / 16.0
                assert [r.node_id for r in a.records] == [r.node_id for r in b.records]
                assert (a.served_by, a.widened) == (b.served_by, b.widened)
                widened += bool(a.widened and a.records)
        assert widened, "no lookup exercised a widening read that found records"
