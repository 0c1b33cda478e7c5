"""Landmark vectors, orderings and landmark numbers."""

import numpy as np
import pytest

from repro.proximity import LandmarkSpace, select_landmarks
from repro.proximity.landmarks import (
    BITS_PER_DIM,
    INDEX_DIMS,
    LandmarkSet,
    landmark_order,
    measure_vector,
)


@pytest.fixture
def landmark_set(tiny_network, rng):
    return select_landmarks(tiny_network, 6, rng)


class TestSelection:
    def test_count_and_distinct(self, landmark_set):
        assert landmark_set.count == 6
        assert len(set(landmark_set.hosts.tolist())) == 6

    def test_needs_two(self, tiny_network, rng):
        with pytest.raises(ValueError):
            select_landmarks(tiny_network, 1, rng)

    def test_max_rtt_covers_landmark_spread(self, tiny_network, landmark_set):
        pairwise = [
            2 * tiny_network.latency(int(a), int(b))
            for i, a in enumerate(landmark_set.hosts)
            for b in landmark_set.hosts[i + 1 :]
        ]
        assert landmark_set.max_rtt_ms >= max(pairwise)

    def test_calibration_is_charged(self, tiny_network, rng):
        select_landmarks(tiny_network, 5, rng)
        # 5 choose 2 pairwise calibration probes
        assert tiny_network.stats.get("landmark_calibration") == 10


class TestVectors:
    def test_vector_shape_and_values(self, tiny_network, landmark_set):
        vector = measure_vector(tiny_network, 3, landmark_set)
        assert vector.shape == (6,)
        for rtt, lm in zip(vector, landmark_set.hosts):
            assert rtt == pytest.approx(2 * tiny_network.latency(3, int(lm)))

    def test_vector_probes_charged(self, tiny_network, landmark_set):
        before = tiny_network.stats.snapshot()
        measure_vector(tiny_network, 3, landmark_set)
        assert tiny_network.stats.delta(before)["landmark_probe"] == 6

    def test_same_stub_hosts_have_close_vectors(self, tiny_network, landmark_set):
        topo = tiny_network.topology
        stub_ids = topo.stub_domain
        stub0 = np.flatnonzero(stub_ids == 0)[:2]
        far = np.flatnonzero(
            (stub_ids >= 0) & (topo.transit_domain != topo.transit_domain[stub0[0]])
        )[0]
        v_a = measure_vector(tiny_network, int(stub0[0]), landmark_set)
        v_b = measure_vector(tiny_network, int(stub0[1]), landmark_set)
        v_far = measure_vector(tiny_network, int(far), landmark_set)
        assert np.linalg.norm(v_a - v_b) < np.linalg.norm(v_a - v_far)


class TestOrdering:
    def test_order_is_permutation(self):
        order = landmark_order(np.array([30.0, 10.0, 20.0]))
        assert order == (1, 2, 0)

    def test_ties_stable(self):
        assert landmark_order(np.array([5.0, 5.0, 1.0])) == (2, 0, 1)


class TestLandmarkSpace:
    def test_total_bits(self, landmark_set):
        space = LandmarkSpace(landmark_set)
        assert space.total_bits == BITS_PER_DIM * INDEX_DIMS == 20
        assert space.number_range == 1 << 20

    def test_default_index_dims_capped(self, landmark_set):
        space = LandmarkSpace(landmark_set)
        assert space.index_dims == 4

    def test_index_dims_validation(self, landmark_set):
        """Fewer landmarks than INDEX_DIMS: every component feeds the number."""
        few = LandmarkSet(landmark_set.hosts[:2], landmark_set.max_rtt_ms)
        space = LandmarkSpace(few)
        assert space.index_dims == 2
        assert space.total_bits == 2 * BITS_PER_DIM

    def test_number_in_range(self, tiny_network, landmark_set):
        space = LandmarkSpace(landmark_set)
        for host in (2, 9, 30):
            vector = measure_vector(tiny_network, host, landmark_set)
            assert 0 <= space.number(vector) < space.number_range

    def test_number_overflow_clipped(self, landmark_set):
        space = LandmarkSpace(landmark_set)
        huge = np.full(landmark_set.count, 10 * landmark_set.max_rtt_ms)
        assert 0 <= space.number(huge) < space.number_range

    def test_close_hosts_get_close_numbers_more_often_than_far(
        self, tiny_network, landmark_set
    ):
        """Statistical locality of the landmark number."""
        space = LandmarkSpace(landmark_set)
        topo = tiny_network.topology
        stubs = topo.stub_nodes()
        rng = np.random.default_rng(5)
        close_gaps, far_gaps = [], []
        for _ in range(60):
            a, b = rng.choice(stubs, size=2, replace=False)
            va = measure_vector(tiny_network, int(a), landmark_set)
            vb = measure_vector(tiny_network, int(b), landmark_set)
            gap = abs(space.number(va) - space.number(vb))
            if topo.stub_domain[a] == topo.stub_domain[b]:
                close_gaps.append(gap)
            elif topo.transit_domain[a] != topo.transit_domain[b]:
                far_gaps.append(gap)
        same_stub = np.flatnonzero(topo.stub_domain == 1)[:2]
        va = measure_vector(tiny_network, int(same_stub[0]), landmark_set)
        vb = measure_vector(tiny_network, int(same_stub[1]), landmark_set)
        close_gaps.append(abs(space.number(va) - space.number(vb)))
        assert np.mean(close_gaps) < np.mean(far_gaps)
