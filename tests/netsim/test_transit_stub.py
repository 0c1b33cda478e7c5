"""Structure of generated transit-stub topologies."""

import numpy as np
import pytest

from repro.netsim import (
    LinkClass,
    NodeKind,
    TransitStubConfig,
    generate_transit_stub,
)
from repro.netsim.distance import DistanceOracle
from repro.netsim.latency import ManualLatencyModel


@pytest.fixture(scope="module")
def topo():
    return generate_transit_stub(TransitStubConfig.tsk_large(0.3), seed=3)


class TestConfig:
    def test_total_nodes_formula(self):
        cfg = TransitStubConfig(
            transit_domains=2,
            transit_nodes_per_domain=3,
            stubs_per_transit_node=4,
            nodes_per_stub=5,
        )
        assert cfg.total_nodes == 2 * 3 * (1 + 4 * 5)

    def test_tsk_large_full_scale_matches_paper(self):
        cfg = TransitStubConfig.tsk_large()
        assert cfg.transit_domains == 8
        # ~10k nodes, as in the paper
        assert 8_000 <= cfg.total_nodes <= 12_000

    def test_tsk_small_full_scale_matches_paper(self):
        cfg = TransitStubConfig.tsk_small()
        assert cfg.transit_domains == 2
        assert 8_000 <= cfg.total_nodes <= 12_000

    def test_tsk_small_has_denser_stubs_than_tsk_large(self):
        large = TransitStubConfig.tsk_large()
        small = TransitStubConfig.tsk_small()
        assert small.nodes_per_stub > large.nodes_per_stub
        assert small.transit_domains < large.transit_domains

    def test_scaling_shrinks(self):
        assert (
            TransitStubConfig.tsk_large(0.3).total_nodes
            < TransitStubConfig.tsk_large(1.0).total_nodes
        )


class TestGeneration:
    def test_node_count(self, topo):
        assert topo.num_nodes == topo.config.total_nodes

    def test_determinism(self, topo):
        again = generate_transit_stub(topo.config, seed=3)
        assert np.array_equal(again.edges, topo.edges)
        assert np.array_equal(again.edge_class, topo.edge_class)
        assert np.array_equal(again.coords, topo.coords)

    def test_seed_changes_topology(self, topo):
        other = generate_transit_stub(topo.config, seed=4)
        assert not np.array_equal(other.edges, topo.edges)

    def test_node_partition(self, topo):
        transit = topo.transit_nodes()
        stub = topo.stub_nodes()
        assert len(transit) + len(stub) == topo.num_nodes
        expected_transit = topo.config.transit_domains * topo.config.transit_nodes_per_domain
        assert len(transit) == expected_transit

    def test_stub_domain_ids(self, topo):
        assert (topo.stub_domain[topo.node_kind == NodeKind.TRANSIT] == -1).all()
        stub_ids = topo.stub_domain[topo.node_kind == NodeKind.STUB]
        assert (stub_ids >= 0).all()
        counts = np.bincount(stub_ids)
        assert (counts == topo.config.nodes_per_stub).all()

    def test_every_stub_domain_has_one_gateway_link(self, topo):
        gateway_links = topo.edges[topo.edge_class == LinkClass.TRANSIT_STUB]
        # each transit-stub link connects one transit and one stub node
        for a, b in gateway_links:
            kinds = {int(topo.node_kind[a]), int(topo.node_kind[b])}
            assert kinds == {int(NodeKind.TRANSIT), int(NodeKind.STUB)}
        num_stub_domains = topo.stub_domain.max() + 1
        assert len(gateway_links) == num_stub_domains

    def test_edge_classes_consistent(self, topo):
        for (a, b), cls in zip(topo.edges, topo.edge_class):
            ka, kb = topo.node_kind[a], topo.node_kind[b]
            if cls == LinkClass.INTRA_TRANSIT:
                assert ka == kb == NodeKind.TRANSIT
                assert topo.transit_domain[a] == topo.transit_domain[b]
            elif cls == LinkClass.CROSS_TRANSIT:
                assert ka == kb == NodeKind.TRANSIT
                assert topo.transit_domain[a] != topo.transit_domain[b]
            elif cls == LinkClass.INTRA_STUB:
                assert ka == kb == NodeKind.STUB
                assert topo.stub_domain[a] == topo.stub_domain[b]

    def test_no_duplicate_edges(self, topo):
        key = topo.edges.min(axis=1) * topo.num_nodes + topo.edges.max(axis=1)
        assert len(np.unique(key)) == len(key)

    def test_no_self_loops(self, topo):
        assert (topo.edges[:, 0] != topo.edges[:, 1]).all()

    def test_connected(self, topo):
        oracle = DistanceOracle.from_topology(topo, ManualLatencyModel())
        assert oracle.is_connected()

    def test_degrees_positive(self, topo):
        assert (topo.degree() > 0).all()


class TestExtras:
    def test_multihoming_adds_transit_stub_links(self):
        base = TransitStubConfig.tsk_large(0.3)
        multi = TransitStubConfig(
            transit_domains=base.transit_domains,
            transit_nodes_per_domain=base.transit_nodes_per_domain,
            stubs_per_transit_node=base.stubs_per_transit_node,
            nodes_per_stub=base.nodes_per_stub,
            multihome_fraction=0.5,
        )
        t_base = generate_transit_stub(base, seed=5)
        t_multi = generate_transit_stub(multi, seed=5)
        count = lambda t: int((t.edge_class == LinkClass.TRANSIT_STUB).sum())
        assert count(t_multi) > count(t_base)

    def test_cross_stub_links(self):
        cfg = TransitStubConfig(
            transit_domains=2,
            transit_nodes_per_domain=3,
            stubs_per_transit_node=2,
            nodes_per_stub=4,
            cross_stub_links=5,
        )
        topo = generate_transit_stub(cfg, seed=5)
        assert (topo.edge_class == LinkClass.CROSS_STUB).sum() > 0

    def test_single_domain_topology(self):
        cfg = TransitStubConfig(
            transit_domains=1,
            transit_nodes_per_domain=3,
            stubs_per_transit_node=2,
            nodes_per_stub=3,
        )
        topo = generate_transit_stub(cfg, seed=1)
        assert (topo.edge_class != LinkClass.CROSS_TRANSIT).all()
        oracle = DistanceOracle.from_topology(topo, ManualLatencyModel())
        assert oracle.is_connected()
