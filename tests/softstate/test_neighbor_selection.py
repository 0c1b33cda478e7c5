"""Soft-state proximity-neighbor selection."""

from unittest import mock

import numpy as np
import pytest

from repro.core import OverlayParams, TopologyAwareOverlay
from repro.netsim import FaultPlan, ManualLatencyModel, Network
from repro.softstate import Region
from repro.softstate.neighbor_selection import probe_and_pick


class TestSelection:
    def test_selected_entries_probe_rtts(self, overlay):
        assert overlay.network.stats.get("neighbor_probe") > 0

    def test_select_returns_live_member_of_cell(self, overlay):
        policy = overlay.ecan.policy
        node_id = overlay.node_ids[0]
        node = overlay.ecan.can.nodes[node_id]
        level = 1
        cell = node.zone.cell(level)
        from repro.overlay.zone import sibling_cells

        for sibling in sibling_cells(cell):
            candidates = overlay.ecan.members(level, sibling, exclude=node_id)
            chosen = policy.select(overlay.ecan, node_id, (level, sibling), candidates)
            if chosen is not None:
                assert chosen in overlay.ecan.can.nodes
                assert chosen != node_id

    def test_select_none_without_identity(self, overlay):
        policy = overlay.ecan.policy
        chosen = policy.select(overlay.ecan, 10 ** 9, (1, (0, 0)), overlay.node_ids[:3])
        assert chosen is None

    def test_selection_quality_close_to_oracle(self, overlay):
        """After a rebuild (fresh candidate sets), the probed pick is
        usually near the cell's true optimum.  Entries chosen at join
        time may legitimately be stale -- that staleness is what the
        pub/sub layer exists to fix -- so rebuild first."""
        network = overlay.network
        for node_id in list(overlay.node_ids):
            overlay.ecan.build_table(node_id)
        ratios = []
        for node_id in overlay.node_ids[:12]:
            node = overlay.ecan.can.nodes[node_id]
            table = overlay.ecan.table_of(node_id)
            for level, row in table.items():
                for cell, entry in row.items():
                    members = overlay.ecan.members(level, cell, exclude=node_id)
                    if entry not in members or len(members) < 2:
                        continue
                    best = min(
                        network.latency(node.host, overlay.ecan.can.nodes[m].host)
                        for m in members
                    )
                    got = network.latency(
                        node.host, overlay.ecan.can.nodes[entry].host
                    )
                    ratios.append(got / max(best, 1e-9) if best > 0 else 1.0)
        assert np.mean(ratios) < 3.0

    def test_load_weight_prefers_idle_nodes(self, tiny_topology):
        network = Network(tiny_topology, ManualLatencyModel())
        ov = TopologyAwareOverlay(
            network,
            OverlayParams(
                num_nodes=32, policy="softstate", landmarks=6,
                load_weight=5.0, seed=9,
            ),
        )
        ov.build()
        # saturate one frequently chosen node, re-select, confirm avoidance
        table_refs = {}
        for node_id in ov.node_ids:
            for row in ov.ecan.table_of(node_id).values():
                for entry in row.values():
                    table_refs[entry] = table_refs.get(entry, 0) + 1
        hot = max(table_refs, key=table_refs.get)
        ov.store.update_load(hot, 100.0)
        for node_id in list(ov.node_ids):
            ov.ecan.build_table(node_id)
        new_refs = 0
        for node_id in ov.node_ids:
            for row in ov.ecan.table_of(node_id).values():
                new_refs += sum(1 for e in row.values() if e == hot)
        assert new_refs < table_refs[hot]


class TestBatchProbe:
    """Without an injector or a retry policy the confirmation probes go
    out as one ``rtt_many``; every other mode probes one by one.  On a
    perfect network the two must be indistinguishable."""

    @staticmethod
    def grown(topology, load_weight=0.0, **kwargs) -> TopologyAwareOverlay:
        network = Network(topology, ManualLatencyModel())
        ov = TopologyAwareOverlay(
            network,
            OverlayParams(
                num_nodes=64, landmarks=6, rtt_budget=4, load_weight=load_weight,
                seed=3,
            ),
            **kwargs,
        )
        ov.build()
        for i, node_id in enumerate(ov.node_ids):
            ov.store.update_load(node_id, float(i % 5))
        for node_id in ov.node_ids:
            ov.ecan.build_table(node_id)
        return ov

    @pytest.mark.parametrize("load_weight", [0.0, 2.0])
    def test_same_pick_and_same_charge_with_a_retry_policy(
        self, tiny_topology, load_weight
    ):
        from repro.core.reliability import RetryPolicy

        batched = self.grown(tiny_topology, load_weight)
        one_by_one = self.grown(tiny_topology, load_weight, retry_policy=RetryPolicy())
        assert batched.ecan.policy.retry_policy is None
        assert one_by_one.ecan.policy.retry_policy is not None
        for node_id in batched.node_ids:
            assert batched.ecan.table_of(node_id) == one_by_one.ecan.table_of(node_id)
        assert batched.network.stats.snapshot() == one_by_one.network.stats.snapshot()
        assert batched.network.stats.get("neighbor_probe") > 0
        assert (
            batched.network.telemetry.events["probe"]
            == one_by_one.network.telemetry.events["probe"]
        )

    def test_tracing_probes_one_by_one_and_agrees(self, tiny_topology):
        """The armed lossless ``FaultPlan`` twin of the test above (the
        name predates the trace buffer's removal)."""
        batched = self.grown(tiny_topology)
        armed = self.grown(tiny_topology)
        armed.arm_faults(FaultPlan(), seed=5)
        policy = armed.ecan.policy
        with mock.patch.object(policy, "_probe", wraps=policy._probe) as one_by_one:
            for ov in (batched, armed):
                for node_id in ov.node_ids[:16]:
                    ov.ecan.build_table(node_id)
        assert one_by_one.called
        for node_id in batched.node_ids:
            assert batched.ecan.table_of(node_id) == armed.ecan.table_of(node_id)
        assert batched.network.stats.snapshot() == armed.network.stats.snapshot()
        assert (
            batched.network.telemetry.events["probe"]
            == armed.network.telemetry.events["probe"]
        )


class TestProbeAndPick:
    def test_picks_minimum_rtt(self, overlay):
        network = overlay.network
        records = [
            overlay.store.registry[n] for n in overlay.node_ids[1:8]
        ]
        host = overlay.ecan.can.nodes[overlay.node_ids[0]].host
        record, rtt = probe_and_pick(network, host, records, budget=len(records))
        expected = min(
            records, key=lambda r: (network.rtt(host, r.host, category=None or "x"), r.node_id)
        )
        assert record.node_id == expected.node_id

    def test_empty_records(self, overlay):
        record, rtt = probe_and_pick(overlay.network, 0, [], budget=5)
        assert record is None
        assert rtt == np.inf

    def test_budget_limits_probes(self, overlay):
        network = overlay.network
        records = [overlay.store.registry[n] for n in overlay.node_ids[1:10]]
        before = network.stats.snapshot()
        probe_and_pick(network, 0, records, budget=3)
        assert network.stats.delta(before)["neighbor_probe"] == 3
