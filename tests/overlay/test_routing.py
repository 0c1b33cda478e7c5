"""RouteResult metrics."""

import numpy as np
import pytest

from repro.overlay import CanOverlay, RouteResult


@pytest.fixture
def can_with_hosts(tiny_network, rng):
    hosts = tiny_network.sample_hosts(20, rng)
    can = CanOverlay(dims=2, rng=np.random.default_rng(3))
    for i, host in enumerate(hosts):
        can.join(i, int(host))
    return can


class TestRouteResult:
    def test_hops(self):
        assert RouteResult(path=[1, 2, 3]).hops == 2
        assert RouteResult(path=[1]).hops == 0

    def test_host_path(self, can_with_hosts):
        result = RouteResult(path=[0, 1, 2])
        hosts = result.host_path(can_with_hosts.nodes)
        assert hosts == [can_with_hosts.nodes[i].host for i in (0, 1, 2)]

    def test_latency_accumulates(self, can_with_hosts, tiny_network):
        result = RouteResult(path=[0, 1, 2])
        expected = tiny_network.path_latency(result.host_path(can_with_hosts.nodes))
        assert result.latency(can_with_hosts.nodes, tiny_network) == pytest.approx(expected)

    def test_real_route_latency_at_least_direct(self, can_with_hosts, tiny_network, rng):
        """Overlay path latency can never beat the shortest path."""
        for _ in range(20):
            point = tuple(rng.random(2))
            start = can_with_hosts.random_node()
            result = can_with_hosts.route(start, point)
            assert result.success
            src = can_with_hosts.nodes[start].host
            dst = can_with_hosts.nodes[result.owner].host
            path_latency = result.latency(can_with_hosts.nodes, tiny_network)
            assert path_latency >= tiny_network.latency(src, dst) - 1e-9

    def test_default_flags(self):
        result = RouteResult()
        assert result.success
        assert result.owner is None
        assert result.repairs == 0
