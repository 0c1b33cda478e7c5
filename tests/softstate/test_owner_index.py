"""The incremental position -> owner index behind ``lookup``.

Two properties: the query path resolves owners O(1) times per lookup
(instead of once per stored record), and the index survives every
membership event -- join, graceful leave, instant takeover, crash +
recovery takeover -- verified against a brute-force re-resolution by
``check_invariants``.
"""

import pytest

from repro.core import OverlayParams, TopologyAwareOverlay
from repro.core.recovery import check_invariants
from repro.netsim import ManualLatencyModel, Network
from repro.netsim.faults import FaultPlan
from repro.softstate.maps import Region


@pytest.fixture
def overlay(tiny_topology):
    network = Network(tiny_topology, ManualLatencyModel())
    ov = TopologyAwareOverlay(
        network,
        OverlayParams(
            num_nodes=48, landmarks=6, replication_factor=2, seed=9
        ),
    )
    ov.build()
    return ov


def count_owner_resolutions(overlay, action) -> int:
    """Run ``action`` counting ``Can.owner_of_point`` invocations."""
    can = overlay.ecan.can
    calls = 0
    original = can.owner_of_point

    def counting(point):
        nonlocal calls
        calls += 1
        return original(point)

    can.owner_of_point = counting
    try:
        action()
    finally:
        del can.owner_of_point
    return calls


class TestLookupCost:
    def test_lookup_resolves_owners_o1(self, overlay):
        region = Region(1, (0, 0))
        querier = overlay.node_ids[0]
        calls = count_owner_resolutions(
            overlay, lambda: overlay.store.lookup(querier, region)
        )
        # a handful at most -- never one per stored record
        assert calls <= 2

    def test_lookup_cost_independent_of_map_size(self, overlay):
        region = Region(1, (0, 0))
        querier = overlay.node_ids[0]
        lookup = lambda: overlay.store.lookup(querier, region)
        before = count_owner_resolutions(overlay, lookup)
        # double the membership (and so the region's records) ...
        for _ in range(48):
            overlay.add_node()
        after = count_owner_resolutions(overlay, lookup)
        # ... and the owner-resolution cost of a lookup is unchanged
        assert after <= before


def check_index(overlay) -> None:
    """Tessellation + owner-index cross-check (valid mid-churn, unlike
    the full post-recovery :func:`check_invariants`)."""
    overlay.ecan.can.check_invariants()
    overlay.store.check_owner_index()


class TestIndexSurvivesChurn:
    def test_join_and_graceful_leave(self, overlay):
        check_index(overlay)
        joined = [overlay.add_node() for _ in range(6)]
        check_index(overlay)
        for node_id in joined[:3]:
            overlay.remove_node(node_id, graceful=True)
            check_index(overlay)

    def test_instant_takeover(self, overlay):
        victims = overlay.node_ids[10:13]
        for node_id in victims:
            overlay.remove_node(node_id, graceful=False)
            check_index(overlay)

    def test_crash_and_recovery_takeover(self, overlay):
        overlay.arm_faults(FaultPlan(), seed=3)
        overlay.enable_recovery()
        victim = overlay.node_ids[5]
        overlay.crash_node(victim)
        overlay.recovery.handle_death(victim)
        assert victim not in overlay.ecan.can.nodes
        check_invariants(overlay, overlay.detector)

    def test_checker_catches_tampering(self, overlay):
        store = overlay.store
        region, bucket = next(
            (r, b) for r, b in store.maps.items() if b
        )
        node_id = next(iter(bucket))
        bucket[node_id].owner = -1  # corrupt one attribution
        with pytest.raises(AssertionError):
            store.check_owner_index()
        assert store.rebuild_owner_index() == 1
        store.check_owner_index()
