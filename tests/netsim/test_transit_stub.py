"""Structure of generated transit-stub topologies."""

import hashlib

import numpy as np
import pytest

from repro.netsim import (
    LinkClass,
    NodeKind,
    TransitStubConfig,
    generate_transit_stub,
)
from repro.netsim.distance import DistanceOracle
from repro.netsim.latency import GeneratedLatencyModel, ManualLatencyModel


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


#: sha256 of ``edges``, ``edge_class`` and the manual and generated
#: weight vectors of each named preset at seed 0, at the quick (0.5) and
#: medium/paper (1.0) topology scales
GENERATOR_DIGESTS = {
    ("tsk-large", 0.5): (
        "b6afa1244af40c7e66f447a40b69c5515a2373f3c9f73131cdd2e689687642e4",
        "bdf232b0ff2c3ea1eb8322e3e0a241e761e5436b6ee6d6f3e0198c9b9631ea98",
        "4a7bf8ca1132ce9f61b59b335ade678f2acfbdb3bc7389733a3d1b1f76dcf3b6",
        "ace53bc936e7fd8fcd3e69889be021afcd13ecda0566504e07f09ebe7d96c94f",
    ),
    ("tsk-large", 1.0): (
        "71cc9e981a8235666971b5724377567b06b8148fae762931edc966bd5ee0be80",
        "e0051c5a03f712c0c97e6ebeec972eb786f44eab3ac2b171af0636a76f6f5a97",
        "d596cecc3c91dd708882bf01073acbc12d75377df11a421e61dea139a137f61d",
        "22dec57f106a05a7a60b6eb99f654e795527e2391235611016358e40edd6de95",
    ),
    ("tsk-small", 0.5): (
        "261486920afe0fa1fb69c6718befb0c748c91609f8b456e600f7dfac52fff743",
        "cd2800614df010e9c76ced33c2e08027777c95103e1472418acb5efe70fada5b",
        "7d6983ad2c468292628cf5192e0559aae0b9f2f34172adf53b2e01910364e640",
        "28420199b16312162ca248d317d3501c5361aff8d1ad5a29f107f3e3f6ac3b6d",
    ),
    ("tsk-small", 1.0): (
        "06b1d082cf7a478fcb4beb999a2fecbb15b8445e6d2a07575e28dd3d088f8753",
        "a4d862a493406ba19842e65223ddeeca5ca7e6d98f53e04c7fedf98000eedf9c",
        "aa8504e43639fdf9a5098c750e7b7b28d3ba3da2b6eff51236e019aaceda177e",
        "15cecbadf1b51c06e831696f081d18ba90eb0e6dfc92421c591cd2d320ce29d0",
    ),
}


@pytest.mark.parametrize("name, scale", sorted(GENERATOR_DIGESTS))
def test_generator_output_is_pinned(name, scale):
    """The generator's exact output, not only its shape: a change that
    moves one edge, one link class or one RNG draw changes a digest."""
    preset = {"tsk-large": TransitStubConfig.tsk_large, "tsk-small": TransitStubConfig.tsk_small}
    topo = generate_transit_stub(preset[name](scale), seed=0)
    arrays = (
        topo.edges,
        topo.edge_class,
        ManualLatencyModel().weights(topo),
        GeneratedLatencyModel().weights(topo),
    )
    digests = tuple(hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest() for a in arrays)
    assert digests == GENERATOR_DIGESTS[name, scale]


class TestExtras:
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
