"""The distributed soft-state store."""

import numpy as np
import pytest

from repro.softstate import Region
from repro.softstate.store import EventKind


class TestPublication:
    def test_every_member_is_published_in_its_regions(self, overlay):
        store = overlay.store
        for node_id in overlay.node_ids:
            regions = store.current_regions(node_id)
            published = store._published.get(node_id, set())
            assert published == set(regions)
            for region in regions:
                assert node_id in store.maps[region]

    def test_records_positioned_inside_their_region(self, overlay):
        store = overlay.store
        for region, bucket in store.maps.items():
            for stored in bucket.values():
                assert region.contains_point(stored.position)

    def test_publish_charges_messages(self, overlay):
        stats = overlay.network.stats
        assert stats.get("softstate_publish") > 0

    def test_publish_requires_identity(self, overlay):
        with pytest.raises(KeyError):
            overlay.store.publish(987654)

    def test_republish_reconciles_regions(self, overlay):
        """After zones deepen, a republish must cover the new regions."""
        store = overlay.store
        node_id = overlay.node_ids[0]
        store.publish(node_id)
        assert store._published[node_id] == set(store.current_regions(node_id))

    def test_withdraw_removes_everywhere(self, overlay):
        store = overlay.store
        node_id = overlay.node_ids[3]
        removed = store.withdraw(node_id)
        assert removed > 0
        for bucket in store.maps.values():
            assert node_id not in bucket
        assert node_id not in store.registry

    def test_update_load_propagates_to_maps(self, overlay):
        store = overlay.store
        node_id = overlay.node_ids[5]
        store.update_load(node_id, 7.5)
        for region in store._published[node_id]:
            assert store.maps[region][node_id].record.load == 7.5
        assert store.registry[node_id].load == 7.5


class TestLookup:
    def test_lookup_returns_candidates_sorted_by_vector_distance(self, overlay):
        store = overlay.store
        querier = overlay.node_ids[0]
        region = Region(1, (0, 0))
        result = store.lookup(querier, region)
        assert result.records  # level-1 region of a 48-node overlay is populated
        own = np.asarray(store.registry[querier].landmark_vector)
        gaps = [
            float(np.linalg.norm(np.asarray(r.landmark_vector) - own))
            for r in result.records
        ]
        assert gaps == sorted(gaps)

    def test_lookup_excludes_querier(self, overlay):
        store = overlay.store
        querier = overlay.node_ids[0]
        for cell in ((0, 0), (0, 1), (1, 0), (1, 1)):
            result = store.lookup(querier, Region(1, cell))
            assert querier not in [r.node_id for r in result.records]

    def test_lookup_respects_max_results(self, overlay):
        store = overlay.store
        result = store.lookup(overlay.node_ids[1], Region(1, (1, 1)), max_results=3)
        assert len(result.records) <= 3

    def test_lookup_charges_route(self, overlay):
        stats = overlay.network.stats
        before = stats.snapshot()
        overlay.store.lookup(overlay.node_ids[2], Region(1, (0, 1)))
        assert stats.delta(before).get("softstate_lookup", 0) >= 0
        # at minimum the route itself was attempted (may be 0 hops if
        # the querier already hosts the shard); an uncharged lookup
        # must not add messages
        before = stats.snapshot()
        overlay.store.lookup(overlay.node_ids[2], Region(1, (0, 1)), charge=False)
        assert "softstate_lookup" not in stats.delta(before)

    def test_lookup_unknown_querier(self, overlay):
        with pytest.raises(KeyError):
            overlay.store.lookup(424242, Region(1, (0, 0)))

    @pytest.mark.parametrize(
        "region", [Region(1, (2, 0)), Region(1, (-1, 0)), Region(1, (0,))]
    )
    def test_lookup_refuses_a_region_the_overlay_has_not(self, overlay, region):
        """The region is checked where it becomes a map position, and the
        error names it rather than the position it would have made."""
        stats = overlay.network.stats
        before = stats.snapshot()
        with pytest.raises(ValueError, match=r"Region\(level=1, cell="):
            overlay.store.lookup(overlay.node_ids[0], region)
        assert stats.delta(before) == {}

    def test_widening_finds_records_despite_tight_condense(self, small_overlay):
        """With a strongly condensed map, a lookup landing on an empty
        shard must widen and still return candidates."""
        store = small_overlay.store
        found_any = 0
        for node_id in small_overlay.node_ids[:20]:
            for cell in ((0, 0), (1, 1)):
                result = store.lookup(node_id, Region(1, cell))
                found_any += bool(result.records)
        assert found_any > 30


class TestExpiry:
    def test_expire_stale_drops_lapsed_records(self, overlay):
        store = overlay.store
        store.record_ttl = 10.0
        node_id = overlay.node_ids[0]
        store.publish(node_id)
        overlay.network.clock.run_until(100.0)
        removed = store.expire_stale()
        assert removed >= 1
        for bucket in store.maps.values():
            assert node_id not in bucket

    def test_refresh_keeps_record_alive(self, overlay):
        store = overlay.store
        store.record_ttl = 50.0
        node_id = overlay.node_ids[1]
        store.publish(node_id)
        overlay.network.clock.run_until(30.0)
        store.publish(node_id)  # refresh
        overlay.network.clock.run_until(60.0)
        store.expire_stale()
        assert any(node_id in bucket for bucket in store.maps.values())


class TestEvents:
    def test_publish_emits_joined(self, overlay):
        events = []
        overlay.store.hooks.append(events.append)
        new_id = overlay.add_node()
        kinds = {e.kind for e in events if e.record.node_id == new_id}
        assert EventKind.NODE_JOINED in kinds

    def test_withdraw_emits_left(self, overlay):
        events = []
        overlay.store.hooks.append(events.append)
        node_id = overlay.node_ids[7]
        overlay.store.withdraw(node_id)
        kinds = {e.kind for e in events if e.record.node_id == node_id}
        assert kinds == {EventKind.NODE_LEFT}

    def test_load_update_emits(self, overlay):
        events = []
        overlay.store.hooks.append(events.append)
        node_id = overlay.node_ids[2]
        overlay.store.update_load(node_id, 1.0)
        assert any(
            e.kind == EventKind.LOAD_UPDATED and e.record.node_id == node_id
            for e in events
        )


class TestDiagnostics:
    def test_entries_per_node_accounts_everything(self, overlay):
        counts = overlay.store.entries_per_node()
        assert sum(counts.values()) == overlay.store.total_entries()
        assert all(owner in overlay.ecan.can.nodes for owner in counts)

    def test_condensing_concentrates_entries(self, tiny_topology):
        from repro.core import OverlayParams, TopologyAwareOverlay
        from repro.netsim import ManualLatencyModel, Network

        hosting = {}
        for rate in (1.0, 1.0 / 64):
            network = Network(tiny_topology, ManualLatencyModel())
            ov = TopologyAwareOverlay(
                network,
                OverlayParams(
                    num_nodes=48, policy="softstate", landmarks=6,
                    condense_rate=rate, seed=5,
                ),
            )
            ov.build()
            hosting[rate] = len(ov.store.entries_per_node())
        assert hosting[1.0 / 64] <= hosting[1.0]
