"""Latency models."""

import numpy as np
import pytest

from repro.netsim import (
    GeneratedLatencyModel,
    ManualLatencyModel,
    NoisyLatencyModel,
    latency_model_from_name,
)
from repro.netsim.transit_stub import LinkClass


class TestManual:
    def test_class_values(self, tiny_topology):
        model = ManualLatencyModel()
        weights = model.weights(tiny_topology)
        cls = tiny_topology.edge_class
        assert np.allclose(weights[cls == LinkClass.CROSS_TRANSIT], 100.0)
        assert np.allclose(weights[cls == LinkClass.INTRA_TRANSIT], 20.0)
        assert np.allclose(weights[cls == LinkClass.TRANSIT_STUB], 5.5)
        assert np.allclose(weights[cls == LinkClass.INTRA_STUB], 1.0)

    def test_latency_ordering_matches_hierarchy(self, tiny_topology):
        """Backbone links must dominate edge links."""
        ms = ManualLatencyModel.CLASS_MS
        assert ms[LinkClass.CROSS_TRANSIT] > ms[LinkClass.INTRA_TRANSIT]
        assert ms[LinkClass.INTRA_TRANSIT] > ms[LinkClass.TRANSIT_STUB]
        assert ms[LinkClass.TRANSIT_STUB] > ms[LinkClass.INTRA_STUB]


class TestGenerated:
    def test_positive(self, tiny_topology):
        weights = GeneratedLatencyModel().weights(tiny_topology)
        assert (weights > 0).all()

    def test_cross_transit_longer_than_intra_stub_on_average(self, tiny_topology):
        weights = GeneratedLatencyModel().weights(tiny_topology)
        cls = tiny_topology.edge_class
        cross = weights[cls == LinkClass.CROSS_TRANSIT]
        stub = weights[cls == LinkClass.INTRA_STUB]
        assert cross.mean() > 5 * stub.mean()

    def test_deterministic(self, tiny_topology):
        model = GeneratedLatencyModel()
        assert np.array_equal(model.weights(tiny_topology), model.weights(tiny_topology))

    def test_scale_knob(self, tiny_topology):
        model = GeneratedLatencyModel()
        weights = model.weights(tiny_topology)
        coords, edges = tiny_topology.coords, tiny_topology.edges
        dist = np.linalg.norm(coords[edges[:, 0]] - coords[edges[:, 1]], axis=1)
        above = weights > model.MIN_LATENCY_MS
        assert above.any() and (~above).any()
        assert np.allclose(weights[above] / dist[above], model.MS_PER_UNIT)
        assert (weights[~above] == model.MIN_LATENCY_MS).all()


class TestNoisy:
    def test_requires_base(self):
        with pytest.raises(TypeError):
            NoisyLatencyModel()

    def test_perturbs_but_preserves_scale(self, tiny_topology):
        base_model = ManualLatencyModel()
        noisy = NoisyLatencyModel(base=base_model, sigma=0.3, seed=2)
        base = base_model.weights(tiny_topology)
        values = noisy.weights(tiny_topology)
        assert not np.allclose(values, base)
        assert (values > 0).all()
        # log-normal with sigma=0.3: geometric mean ratio close to 1
        ratio = np.exp(np.mean(np.log(values / base)))
        assert 0.8 < ratio < 1.2

    def test_seeded(self, tiny_topology):
        a = NoisyLatencyModel(base=ManualLatencyModel(), seed=5).weights(tiny_topology)
        b = NoisyLatencyModel(base=ManualLatencyModel(), seed=5).weights(tiny_topology)
        c = NoisyLatencyModel(base=ManualLatencyModel(), seed=6).weights(tiny_topology)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestFactory:
    @pytest.mark.parametrize(
        "name", ["generated", "manual", "noisy-generated", "noisy-manual"]
    )
    def test_known_names(self, name, tiny_topology):
        model = latency_model_from_name(name, seed=1)
        weights = model.weights(tiny_topology)
        assert len(weights) == tiny_topology.num_edges

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown latency model"):
            latency_model_from_name("bogus")
