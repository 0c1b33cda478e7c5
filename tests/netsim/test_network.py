"""Network facade: measurement accounting and host sampling."""

import math

import numpy as np
import pytest

from repro.netsim import FaultPlan, NodeKind
from repro.netsim.network import MessageStats


class TestMessageStats:
    def test_count_and_get(self):
        stats = MessageStats()
        stats.count("x")
        stats.count("x", 4)
        assert stats.get("x") == 5
        assert stats.get("missing") == 0

    def test_total(self):
        stats = MessageStats()
        stats.count("a", 2)
        stats.count("b", 3)
        assert stats.total() == 5

    def test_snapshot_delta(self):
        stats = MessageStats()
        stats.count("a", 2)
        before = stats.snapshot()
        stats.count("a", 1)
        stats.count("b", 7)
        assert stats.delta(before) == {"a": 1, "b": 7}

    def test_delta_skips_unchanged(self):
        stats = MessageStats()
        stats.count("a", 2)
        assert stats.delta(stats.snapshot()) == {}


class TestRtt:
    def test_rtt_is_twice_latency(self, tiny_network):
        assert tiny_network.rtt(0, 5) == pytest.approx(2 * tiny_network.latency(0, 5))

    def test_rtt_charges_probe(self, tiny_network):
        tiny_network.rtt(0, 5)
        tiny_network.rtt(0, 6, category="custom")
        assert tiny_network.stats.get("rtt_probe") == 1
        assert tiny_network.stats.get("custom") == 1

    def test_latency_is_free(self, tiny_network):
        tiny_network.latency(0, 5)
        tiny_network.latencies_from(0)
        assert tiny_network.stats.total() == 0

    def test_rtt_many(self, tiny_network):
        hosts = [3, 4, 5]
        rtts = tiny_network.rtt_many(0, hosts)
        assert len(rtts) == 3
        assert tiny_network.stats.get("rtt_probe") == 3
        for host, rtt in zip(hosts, rtts):
            assert rtt == pytest.approx(2 * tiny_network.latency(0, host))

    def test_rtt_list_is_rtt_many_as_python_floats(self, tiny_network):
        hosts = [0, 3, 4, 5, np.int64(9)]
        many = tiny_network.rtt_many(0, hosts).tolist()
        listed = tiny_network.rtt_list(0, hosts)
        assert [type(rtt) for rtt in listed] == [float] * len(hosts)
        assert [rtt.hex() for rtt in listed] == [rtt.hex() for rtt in many]
        assert tiny_network.stats.get("rtt_probe") == 2 * len(hosts)
        assert tiny_network.telemetry.events["probe"] == 2 * len(hosts)

    def test_rtt_list_with_faults_armed_is_rtt_many(self, tiny_network):
        hosts = list(range(1, 40))
        tiny_network.arm_faults(FaultPlan(probe_loss_rate=0.5), seed=1)
        listed = tiny_network.rtt_list(0, hosts)
        tiny_network.arm_faults(FaultPlan(probe_loss_rate=0.5), seed=1)
        many = tiny_network.rtt_many(0, hosts).tolist()
        assert any(math.isnan(rtt) for rtt in listed)
        assert [repr(rtt) for rtt in listed] == [repr(rtt) for rtt in many]

    def test_path_latency(self, tiny_network):
        path = [0, 4, 9]
        expected = tiny_network.latency(0, 4) + tiny_network.latency(4, 9)
        assert tiny_network.path_latency(path) == pytest.approx(expected)

    def test_path_latency_single_host_is_zero(self, tiny_network):
        assert tiny_network.path_latency([3]) == 0.0


class TestHosts:
    def test_sample_hosts_distinct_stub(self, tiny_network, rng):
        hosts = tiny_network.sample_hosts(20, rng)
        assert len(set(hosts.tolist())) == 20
        kinds = tiny_network.topology.node_kind[hosts]
        assert (kinds == NodeKind.STUB).all()

    def test_sample_hosts_all_pool(self, tiny_network, rng):
        hosts = tiny_network.sample_hosts(tiny_network.num_nodes, rng, stub_only=False)
        assert len(hosts) == tiny_network.num_nodes

    def test_sample_hosts_overdraw(self, tiny_network, rng):
        with pytest.raises(ValueError):
            tiny_network.sample_hosts(tiny_network.num_nodes + 1, rng, stub_only=False)

    def test_clock_attached(self, tiny_network):
        assert tiny_network.clock.now == 0.0
        tiny_network.clock.run_until(5.0)
        assert tiny_network.clock.now == 5.0
