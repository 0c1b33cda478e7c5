"""Diagnostics helpers."""

import pytest

from repro.core import OverlayParams, TopologyAwareOverlay
from repro.core.diagnostics import (
    hop_latency_profile,
    map_placement_report,
    table_quality,
)
from repro.netsim import ManualLatencyModel, Network


@pytest.fixture(scope="module")
def overlay(small_topology):
    network = Network(small_topology, ManualLatencyModel())
    ov = TopologyAwareOverlay(
        network, OverlayParams(num_nodes=96, policy="softstate", landmarks=8, seed=3)
    )
    ov.build()
    return ov


class TestHopProfile:
    def test_rows_shape(self, overlay):
        rows = hop_latency_profile(overlay, samples=100)
        assert rows
        assert rows[0]["hop"] == 1
        for row in rows:
            assert row["mean_latency_ms"] > 0
            assert row["count"] > 0

    def test_first_hop_count_is_largest(self, overlay):
        rows = hop_latency_profile(overlay, samples=100)
        counts = [r["count"] for r in rows]
        assert counts[0] == max(counts)

    def test_proximity_signature(self, overlay):
        """With soft-state selection the first (high-choice) hop is on
        average cheaper than the late hops."""
        rows = hop_latency_profile(overlay, samples=250)
        if len(rows) >= 3:
            assert rows[0]["mean_latency_ms"] <= max(
                r["mean_latency_ms"] for r in rows[1:]
            )


class TestTableQuality:
    def test_ratios_at_least_one(self, overlay):
        for node_id in list(overlay.node_ids):
            overlay.ecan.build_table(node_id)
        rows = table_quality(overlay, max_nodes=24)
        assert rows
        for row in rows:
            assert row["mean_ratio"] >= 1.0 - 1e-9
            assert row["entries"] > 0

    def test_optimal_policy_scores_one(self, small_topology):
        network = Network(small_topology, ManualLatencyModel())
        ov = TopologyAwareOverlay(
            network, OverlayParams(num_nodes=64, policy="optimal", landmarks=8, seed=3)
        )
        ov.build()
        for node_id in list(ov.node_ids):
            ov.ecan.build_table(node_id)
        rows = table_quality(ov, max_nodes=24)
        for row in rows:
            assert row["mean_ratio"] == pytest.approx(1.0, abs=1e-6)


class TestPlacementReport:
    def test_levels_and_totals(self, overlay):
        rows = map_placement_report(overlay.store)
        assert rows
        assert sum(r["entries"] for r in rows) == overlay.store.total_entries()
        for row in rows:
            assert row["hosting_nodes"] <= row["entries"]
            assert row["max_entries_one_node"] >= 1
