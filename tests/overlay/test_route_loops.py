"""``EcanOverlay.route``'s two loops make one set of decisions.

On a network that delivers everything with tracing off, ``route`` runs
``_decide`` steps and charges the hops once at the end; with tracing on
or an injector armed it sends (and charges) hop by hop.  A lossless
network must not be able to tell them apart: same path, same repairs,
same ``MessageStats``, same ``hop`` event count.
"""

import numpy as np
import pytest

from repro.core import OverlayParams, TopologyAwareOverlay
from repro.netsim import ManualLatencyModel, Network
from repro.netsim.faults import FaultPlan
from repro.overlay import EcanOverlay


def churned_overlay(topology) -> TopologyAwareOverlay:
    """96 nodes, then ungraceful departures so routes meet stale entries."""
    network = Network(topology, ManualLatencyModel())
    overlay = TopologyAwareOverlay(
        network, OverlayParams(num_nodes=96, landmarks=6, seed=31)
    )
    overlay.build()
    rng = np.random.default_rng(31)
    for _ in range(10):
        overlay.remove_node(int(rng.choice(overlay.node_ids)), graceful=False)
    return overlay


def route_all(overlay, pairs) -> list:
    out = []
    for src, dst in pairs:
        point = overlay.ecan.can.nodes[dst].zone.center()
        r = overlay.ecan.route(src, point, category="probe_route")
        out.append(
            (r.path, r.owner, r.success, r.expressway_hops, r.can_hops, r.repairs)
        )
    return out


class TestLoopsAgree:
    def test_fault_free_traced_and_armed_lossless_routes_match(self, tiny_topology):
        plain = churned_overlay(tiny_topology)
        traced = churned_overlay(tiny_topology)
        armed = churned_overlay(tiny_topology)
        traced.network.telemetry.tracing = True
        armed.arm_faults(FaultPlan(), seed=5)

        rng = np.random.default_rng(2)
        ids = plain.node_ids
        assert ids == traced.node_ids == armed.node_ids
        pairs = [
            tuple(int(x) for x in rng.choice(ids, size=2, replace=False))
            for _ in range(150)
        ]
        expected = route_all(plain, pairs)
        assert sum(r[5] for r in expected) > 0, "no route repaired an entry"
        assert sum(r[3] for r in expected) > 0 and sum(r[4] for r in expected) > 0
        for other in (traced, armed):
            assert route_all(other, pairs) == expected
            assert other.network.stats.snapshot() == plain.network.stats.snapshot()
            assert (
                other.network.telemetry.event_counts["hop"]
                == plain.network.telemetry.event_counts["hop"]
            )
        hops = sum(len(r[0]) - 1 for r in expected)
        assert plain.network.stats.get("probe_route") == hops
        # the traced run really went hop by hop
        assert any(e.kind == "hop" for e in traced.network.telemetry.events)

    def test_next_hop_replays_the_fault_free_route(self, tiny_topology):
        overlay = churned_overlay(tiny_topology)
        rng = np.random.default_rng(3)
        ids = overlay.node_ids
        for _ in range(60):
            src, dst = (int(x) for x in rng.choice(ids, size=2, replace=False))
            point = overlay.ecan.can.nodes[dst].zone.center()
            routed = overlay.ecan.route(src, point)
            path = [src]
            kinds = []
            while True:
                next_id, kind = overlay.ecan.next_hop(path[-1], point, visited=path)
                if next_id is None:
                    break
                kinds.append(kind)
                path.append(next_id)
            assert kind == "delivered"
            assert path == routed.path
            assert kinds.count("expressway") == routed.expressway_hops
            assert kinds.count("can") == routed.can_hops


class TestFailedRoutesStillCharge:
    @pytest.fixture
    def ecan(self, tiny_network):
        ecan = EcanOverlay(
            rng=np.random.default_rng(8),
            stats=tiny_network.stats,
            network=tiny_network,
        )
        for i in range(48):
            ecan.join(i, host=i)
        return ecan

    @staticmethod
    def long_route(ecan):
        """(start, point) of some route with at least three hops."""
        rng = np.random.default_rng(1)
        while True:
            start = int(rng.integers(0, len(ecan)))
            point = tuple(float(x) for x in rng.random(2))
            if ecan.route(start, point, category=None).hops >= 3:
                return start, point

    @pytest.mark.parametrize("tracing", [False, True])
    def test_hop_budget(self, ecan, tiny_network, tracing):
        start, point = self.long_route(ecan)
        tiny_network.telemetry.tracing = tracing
        before = tiny_network.telemetry.event_counts["hop"]
        result = ecan.route(start, point, category="probe_route", max_hops=2)
        assert not result.success and result.owner is None
        # the budget is checked before each hop, so exactly two were made
        assert result.hops == 2
        assert tiny_network.stats.get("probe_route") == 2
        assert tiny_network.telemetry.event_counts["hop"] - before == 2

    @pytest.mark.parametrize("tracing", [False, True])
    def test_dead_end(self, ecan, tiny_network, tracing):
        start, point = self.long_route(ecan)
        second = ecan.route(start, point, category=None).path[1]
        # strand the second node: nothing to jump to, nowhere unvisited to step
        ecan.can.nodes[second].neighbors = {start}
        ecan._tables[second] = {}
        ecan.members = lambda level, cell, exclude=None: []
        tiny_network.telemetry.tracing = tracing
        before = tiny_network.telemetry.event_counts["hop"]
        result = ecan.route(start, point, category="probe_route")
        assert not result.success and result.owner is None
        assert result.path == [start, second]
        assert tiny_network.stats.get("probe_route") == 1
        assert tiny_network.telemetry.event_counts["hop"] - before == 1
