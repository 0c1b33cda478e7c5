"""Parameter validation and network construction."""

import pytest

from repro.core import NetworkParams, OverlayParams, make_network
from repro.core.config import topology_config


class TestOverlayParams:
    def test_defaults_match_reconstructed_table2(self):
        params = OverlayParams()
        assert params.num_nodes == 4096
        assert params.landmarks == 15
        assert params.rtt_budget == 10
        assert params.policy == "softstate"

    def test_rejects_unknown_policy(self):
        with pytest.raises(ValueError, match="policy"):
            OverlayParams(policy="magic")

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            OverlayParams(num_nodes=0)
        with pytest.raises(ValueError):
            OverlayParams(rtt_budget=0)


class TestTopologyConfig:
    def test_named_presets(self):
        assert topology_config("tsk-large").transit_domains == 8
        assert topology_config("tsk-small").transit_domains == 2

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown topology"):
            topology_config("tsk-medium")


class TestMakeNetwork:
    def test_builds_connected_network(self):
        network = make_network(
            NetworkParams(topology="tsk-large", latency="manual", topo_scale=0.25)
        )
        assert network.oracle.is_connected()
        assert network.num_nodes > 50

    def test_latency_model_selected(self):
        network = make_network(
            NetworkParams(topology="tsk-small", latency="generated", topo_scale=0.25)
        )
        assert network.latency_model.name == "generated"
