"""``EcanOverlay.route``'s two loops make one set of decisions.

On a network that delivers everything ``route`` runs ``_decide`` steps
and charges the hops once at the end; with an injector armed it sends
(and charges) hop by hop.  A lossless network must not be able to tell
them apart: same path, same repairs, same ``MessageStats``, same
``hop`` count.
"""

from unittest import mock

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
        # the armed lossless plan is the lever onto ``_route_per_hop``
        # (the name predates the trace buffer's removal)
        plain = churned_overlay(tiny_topology)
        armed = churned_overlay(tiny_topology)
        armed.arm_faults(FaultPlan(), seed=5)

        rng = np.random.default_rng(2)
        ids = plain.node_ids
        assert ids == armed.node_ids
        pairs = [
            tuple(int(x) for x in rng.choice(ids, size=2, replace=False))
            for _ in range(150)
        ]
        expected = route_all(plain, pairs)
        assert sum(r[5] for r in expected) > 0, "no route repaired an entry"
        assert sum(r[3] for r in expected) > 0 and sum(r[4] for r in expected) > 0
        with mock.patch.object(
            armed.ecan, "_route_per_hop", wraps=armed.ecan._route_per_hop
        ) as per_hop:
            assert route_all(armed, pairs) == expected
        # the armed run really went hop by hop (a repair's map read routes too)
        assert per_hop.call_count >= len(pairs)
        assert armed.network.stats.snapshot() == plain.network.stats.snapshot()
        hops = sum(len(r[0]) - 1 for r in expected)
        assert plain.network.stats.get("probe_route") == hops
        assert (
            armed.network.telemetry.events["hop"]
            == plain.network.telemetry.events["hop"]
        )

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

    @pytest.mark.parametrize("armed", [False, True])
    def test_hop_budget(self, ecan, tiny_network, armed):
        start, point = self.long_route(ecan)
        if armed:
            tiny_network.arm_faults(FaultPlan(), seed=5)
        before = tiny_network.telemetry.events["hop"]
        result = ecan.route(start, point, category="probe_route", max_hops=2)
        assert not result.success and result.owner is None
        # the budget is checked before each hop, so exactly two were made
        assert result.hops == 2
        assert tiny_network.stats.get("probe_route") == 2
        assert tiny_network.telemetry.events["hop"] - before == 2

    @pytest.mark.parametrize("armed", [False, True])
    def test_dead_end(self, ecan, tiny_network, armed):
        start, point = self.long_route(ecan)
        second = ecan.route(start, point, category=None).path[1]
        # strand the second node: nothing to jump to, nowhere unvisited to step
        ecan.can.nodes[second].neighbors = {start}
        ecan._tables[second] = {}
        ecan.members = lambda level, cell, exclude=None: []
        if armed:
            tiny_network.arm_faults(FaultPlan(), seed=5)
        before = tiny_network.telemetry.events["hop"]
        result = ecan.route(start, point, category="probe_route")
        assert not result.success and result.owner is None
        assert result.path == [start, second]
        assert tiny_network.stats.get("probe_route") == 1
        assert tiny_network.telemetry.events["hop"] - before == 1
