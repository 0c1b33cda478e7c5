"""Sim-mode soak harness: corruption classes, convergence, determinism."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.builder import TopologyAwareOverlay
from repro.core.config import OverlayParams
from repro.core.recovery import DetectorParams, check_invariants
from repro.core.soak import (
    CHURN_PER_EPOCH,
    CORRUPTION_KINDS,
    SoakConfig,
    _converge_sim,
    _legitimate,
    inject_corruption,
    run_sim_soak,
)
from repro.netsim import ManualLatencyModel, Network
from repro.netsim.faults import FaultPlan


@pytest.fixture()
def armed_overlay(tiny_network):
    """A small recovering overlay the adversary can corrupt."""
    overlay = TopologyAwareOverlay(
        tiny_network,
        OverlayParams(num_nodes=48, policy="softstate", replication_factor=2, seed=2),
    )
    overlay.build()
    overlay.arm_faults(FaultPlan(), seed=3)
    overlay.enable_recovery(DetectorParams(period=500.0))
    return overlay


class TestInjectCorruption:
    @pytest.mark.parametrize("kind", CORRUPTION_KINDS)
    def test_each_kind_breaks_then_heals_within_budget(self, kind, armed_overlay):
        """Every corruption class trips the legitimacy predicate, and
        the repair loop converges inside the round budget."""
        rng = np.random.default_rng(7)
        corrupted = inject_corruption(armed_overlay, kind, rng)
        assert corrupted > 0
        ok, violation = _legitimate(armed_overlay, armed_overlay.detector)
        assert not ok, f"{kind} left the overlay legitimate"
        assert violation

        rounds, last = _converge_sim(armed_overlay, budget=10)
        assert rounds is not None, f"{kind} never converged: {last}"
        check_invariants(armed_overlay, armed_overlay.detector)

    def test_unknown_kind_rejected(self, armed_overlay):
        with pytest.raises(ValueError, match="unknown corruption kind"):
            inject_corruption(armed_overlay, "melt_everything", np.random.default_rng(0))


def corruptible_overlay(topology) -> TopologyAwareOverlay:
    """A small bulk-built overlay with the recovery stack armed."""
    overlay = TopologyAwareOverlay(
        Network(topology, ManualLatencyModel()),
        OverlayParams(num_nodes=24, policy="softstate", replication_factor=2, seed=2),
    )
    overlay.build_bulk()
    overlay.arm_faults(FaultPlan(), seed=3)
    overlay.enable_recovery(DetectorParams(period=500.0))
    return overlay


class TestArbitraryCorruption:
    """Convergence from *arbitrary* states, not three hand-picked ones:
    any expressway entry may hold any int (ghosts, members that do not
    cover the cell), any stored copy any position, any owner attribution
    any member (both index sides).  One scrub + reconcile round must
    restore the legitimacy predicate."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_scrub_and_reconcile_restore_invariants(self, tiny_topology, data):
        overlay = corruptible_overlay(tiny_topology)
        tables, store = overlay.ecan._tables, overlay.store
        members = sorted(overlay.ecan.can.nodes)
        slots = [
            (node_id, level, cell)
            for node_id, table in tables.items()
            for level, row in table.items()
            for cell in row
        ]
        entries = [
            (region, node_id)
            for region, bucket in store.maps.items()
            for node_id in bucket
        ]

        def corrupt(items, values) -> list:
            """Which of ``items`` to overwrite, and with what."""
            chosen = data.draw(
                st.dictionaries(st.integers(0, len(items) - 1), values)
            )
            return [(items[index], value) for index, value in sorted(chosen.items())]

        any_entry = st.one_of(st.integers(), st.sampled_from(members))
        for (node_id, level, cell), entry in corrupt(slots, any_entry):
            tables[node_id][level][cell] = entry
        any_point = st.tuples(
            *[st.floats(0.0, 1.0, exclude_max=True)] * overlay.ecan.dims
        )
        for (region, node_id), position in corrupt(entries, any_point):
            store.maps[region][node_id].position = position
        for (region, node_id), owner in corrupt(entries, st.sampled_from(members)):
            store._index_insert(region, node_id, owner)

        overlay.recovery.scrub()
        overlay.recovery.reconcile()
        check_invariants(overlay, overlay.detector)
        # scrub_tables' own promise, beyond the predicate's liveness check
        assert all(
            overlay.ecan._entry_valid_uncached(entry, level, cell)
            for table in tables.values()
            for level, row in table.items()
            for cell, entry in row.items()
        )


class TestRebuildOwnerIndex:
    def test_rebuild_repairs_poisoned_index(self, armed_overlay):
        rng = np.random.default_rng(9)
        assert inject_corruption(armed_overlay, "poison_owner_index", rng) > 0
        store = armed_overlay.store
        with pytest.raises(AssertionError):
            store.check_owner_index()
        store.rebuild_owner_index()
        store.check_owner_index()


class TestSimSoak:
    CONFIG = SoakConfig(
        nodes=48,
        lookups=32,
        round_budget=15,
        seed=1,
    )

    def test_soak_converges_with_clean_counters(self):
        record = run_sim_soak(self.CONFIG)
        assert record["converged"]
        kinds = [epoch["kind"] for epoch in record["epochs"]]
        assert kinds == list(CORRUPTION_KINDS)
        for epoch in record["epochs"]:
            assert epoch["violation"] is None
            assert 1 <= epoch["rounds_to_converge"] <= self.CONFIG.round_budget
            assert epoch["corrupted"] > 0
        # legitimacy is restored without collateral damage
        assert record["false_kills"] == 0
        assert record["false_purges"] == 0
        assert record["takeovers"] >= len(CORRUPTION_KINDS) * CHURN_PER_EPOCH

    def test_soak_is_deterministic(self):
        """Pure simulated clock + seeded RNG: byte-stable records."""
        assert run_sim_soak(self.CONFIG) == run_sim_soak(self.CONFIG)


class TestBuildBulkParity:
    def test_bulk_build_matches_incremental_membership_and_zones(self, tiny_network):
        params = OverlayParams(num_nodes=40, policy="softstate", seed=2)
        incremental = TopologyAwareOverlay(tiny_network, params)
        incremental.build()
        bulk = TopologyAwareOverlay(tiny_network, params)
        bulk.build_bulk()

        a, b = incremental.ecan.can.nodes, bulk.ecan.can.nodes
        assert set(a) == set(b)
        for node_id in a:
            assert a[node_id].host == b[node_id].host
            assert tuple(a[node_id].zone.lo) == tuple(b[node_id].zone.lo)
            assert tuple(a[node_id].zone.hi) == tuple(b[node_id].zone.hi)
        check_invariants(bulk)
