"""Soft-state consistency properties under mixed operations.

Invariants checked after arbitrary interleavings of joins, graceful
and crash departures, refreshes and lookups:

* every published record's position lies inside its region;
* a graceful departure leaves no trace; crash leftovers are exactly
  the stale entries maintenance reports;
* the registry never references an overlay member twice;
* lookups never return the querier, records of regions they were not
  asked about, or more than max_results.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import OverlayParams, TopologyAwareOverlay
from repro.netsim import ManualLatencyModel, Network
from repro.softstate.maps import Region


OPS = st.lists(st.integers(min_value=0, max_value=4), min_size=6, max_size=28)


def fresh_overlay(topology, n=20, seed=5):
    network = Network(topology, ManualLatencyModel())
    overlay = TopologyAwareOverlay(
        network, OverlayParams(num_nodes=n, policy="softstate", landmarks=5, seed=seed)
    )
    overlay.build()
    return overlay


class TestStoreConsistencyProperty:
    @given(OPS)
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_mixed_operations(self, tiny_topology, ops):
        overlay = fresh_overlay(tiny_topology)
        rng = np.random.default_rng(7)
        graceful_departures = set()
        crash_departures = set()
        for op in ops:
            members = overlay.node_ids
            if op in (0, 1) or len(members) <= 4:
                overlay.add_node()
            elif op == 2:
                victim = members[int(rng.integers(0, len(members)))]
                overlay.remove_node(victim, graceful=True)
                graceful_departures.add(victim)
            elif op == 3:
                victim = members[int(rng.integers(0, len(members)))]
                overlay.remove_node(victim, graceful=False)
                crash_departures.add(victim)
            else:
                querier = members[int(rng.integers(0, len(members)))]
                cell = (int(rng.integers(0, 2)), int(rng.integers(0, 2)))
                result = overlay.store.lookup(querier, Region(1, cell), max_results=4)
                assert len(result.records) <= 4
                assert querier not in [r.node_id for r in result.records]

        store = overlay.store
        alive = set(overlay.node_ids)
        stale = 0
        for region, bucket in store.maps.items():
            for node_id, stored in bucket.items():
                assert region.contains_point(stored.position)
                assert node_id not in graceful_departures
                if node_id not in alive:
                    stale += 1
                    assert node_id in crash_departures
        assert stale == overlay.maintenance.stale_entries()

    def test_registry_matches_membership_after_builds(self, tiny_topology):
        overlay = fresh_overlay(tiny_topology, n=24)
        registered_members = set(overlay.store.registry) & set(overlay.node_ids)
        assert registered_members == set(overlay.node_ids)

    def test_lookup_results_belong_to_region(self, tiny_topology):
        overlay = fresh_overlay(tiny_topology, n=24)
        for cell in ((0, 0), (0, 1), (1, 0), (1, 1)):
            region = Region(1, cell)
            result = overlay.store.lookup(overlay.node_ids[0], region)
            for record in result.records:
                node = overlay.ecan.can.nodes.get(record.node_id)
                if node is None:
                    continue
                # the record's owner must be (or have been) a member of
                # the region: its zone intersects the region's box
                box = region.zone()
                z = node.zone
                assert all(
                    zl < bh and bl < zh
                    for zl, zh, bl, bh in zip(z.lo, z.hi, box.lo, box.hi)
                )
