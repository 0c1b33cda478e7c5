"""Distance oracle: correctness and caching."""

import numpy as np
import pytest
from scipy.sparse import csr_matrix

from repro.netsim import DistanceOracle, ManualLatencyModel


def line_graph(weights) -> csr_matrix:
    """Path graph 0-1-2-... with the given edge weights."""
    n = len(weights) + 1
    rows, cols, data = [], [], []
    for i, w in enumerate(weights):
        rows += [i, i + 1]
        cols += [i + 1, i]
        data += [w, w]
    return csr_matrix((data, (rows, cols)), shape=(n, n))


class TestExactness:
    def test_line_graph_distances(self):
        oracle = DistanceOracle(line_graph([1.0, 2.0, 3.0]))
        assert oracle.distance(0, 3) == pytest.approx(6.0)
        assert oracle.distance(1, 3) == pytest.approx(5.0)
        assert oracle.distance(2, 2) == 0.0

    def test_shortcut_wins(self):
        graph = line_graph([1.0, 1.0, 1.0]).tolil()
        graph[0, 3] = 2.0
        graph[3, 0] = 2.0
        oracle = DistanceOracle(csr_matrix(graph))
        assert oracle.distance(0, 3) == pytest.approx(2.0)

    def test_symmetry(self, tiny_topology, rng):
        oracle = DistanceOracle.from_topology(tiny_topology, ManualLatencyModel())
        for _ in range(20):
            u, v = rng.integers(0, tiny_topology.num_nodes, size=2)
            assert oracle.distance(int(u), int(v)) == pytest.approx(
                oracle.distance(int(v), int(u)), rel=1e-5
            )

    def test_triangle_inequality_on_shortest_paths(self, tiny_topology, rng):
        oracle = DistanceOracle.from_topology(tiny_topology, ManualLatencyModel())
        for _ in range(30):
            a, b, c = rng.integers(0, tiny_topology.num_nodes, size=3)
            ab = oracle.distance(int(a), int(b))
            bc = oracle.distance(int(b), int(c))
            ac = oracle.distance(int(a), int(c))
            assert ac <= ab + bc + 1e-6

    def test_self_distance_zero(self, tiny_topology):
        oracle = DistanceOracle.from_topology(tiny_topology, ManualLatencyModel())
        assert oracle.distance(5, 5) == 0.0

    def test_row_matches_distance(self, tiny_topology):
        oracle = DistanceOracle.from_topology(tiny_topology, ManualLatencyModel())
        row = oracle.row(3)
        assert row[10] == pytest.approx(oracle.distance(3, 10), rel=1e-6)
        assert len(row) == tiny_topology.num_nodes

    def test_rows_bulk_matches_single(self, tiny_topology):
        oracle = DistanceOracle.from_topology(tiny_topology, ManualLatencyModel())
        bulk = oracle.rows([2, 4, 6])
        for i, src in enumerate([2, 4, 6]):
            assert np.allclose(bulk[i], oracle.row(src), rtol=1e-6)

    def test_rows_of_no_source_is_an_empty_matrix(self, tiny_topology):
        oracle = DistanceOracle.from_topology(tiny_topology, ManualLatencyModel())
        empty = oracle.rows([])
        assert empty.shape == (0, tiny_topology.num_nodes)
        assert empty.dtype == np.float32
        assert oracle.cache_info()["rows"] == 0


class TestCache:
    def test_rows_are_cached_and_reused(self, tiny_topology):
        oracle = DistanceOracle.from_topology(tiny_topology, ManualLatencyModel())
        row1 = oracle.row(3)
        row2 = oracle.row(3)
        assert row1 is row2

    def test_lru_eviction(self):
        oracle = DistanceOracle(line_graph([1.0] * 9), max_cached_rows=3)
        for src in range(5):
            oracle.row(src)
        assert oracle.cache_info()["rows"] == 3

    def test_cached_rows_are_read_only(self, tiny_topology):
        oracle = DistanceOracle.from_topology(tiny_topology, ManualLatencyModel())
        row = oracle.row(0)
        with pytest.raises(ValueError):
            row[0] = 42.0

    def test_is_connected_detects_disconnection(self):
        graph = csr_matrix((4, 4))
        assert not DistanceOracle(graph).is_connected()
