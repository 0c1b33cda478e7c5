"""Hybrid landmark+RTT search and candidate ranking."""

import numpy as np
import pytest

from repro.proximity import LandmarkSpace, hybrid_search, rank_candidates, select_landmarks
from repro.experiments.common import bulk_vectors


@pytest.fixture
def testbed(tiny_network, rng):
    landmarks = select_landmarks(tiny_network, 8, rng)
    space = LandmarkSpace(landmarks)
    hosts = tiny_network.topology.stub_nodes()
    vectors = bulk_vectors(tiny_network, landmarks, hosts, charge=False)
    return tiny_network, space, hosts, vectors


class TestRanking:
    def test_vector_ranking_orders_by_distance(self, testbed):
        _, _, hosts, vectors = testbed
        order = rank_candidates(vectors[0], vectors, rank="vector")
        dists = np.linalg.norm(vectors - vectors[0], axis=1)
        assert dists[order[0]] <= dists[order[-1]]
        assert order[0] == 0  # itself is distance zero

    def test_number_ranking(self, testbed):
        _, space, hosts, vectors = testbed
        order = rank_candidates(
            vectors[3], vectors, rank="number", landmark_space=space
        )
        numbers = np.array([space.number(v) for v in vectors])
        gaps = np.abs(numbers - space.number(vectors[3]))
        assert gaps[order[0]] == gaps.min()

    def test_number_ranking_requires_space(self, testbed):
        _, _, _, vectors = testbed
        with pytest.raises(ValueError):
            rank_candidates(vectors[0], vectors, rank="number")

    def test_order_ranking_prefers_same_permutation(self, testbed):
        _, _, hosts, vectors = testbed
        rng = np.random.default_rng(3)
        order = rank_candidates(vectors[5], vectors, rank="order", rng=rng)
        query_perm = tuple(np.argsort(vectors[5], kind="stable"))
        top_perm = tuple(np.argsort(vectors[order[0]], kind="stable"))
        assert top_perm == query_perm

    def test_unknown_ranking(self, testbed):
        _, _, _, vectors = testbed
        with pytest.raises(ValueError):
            rank_candidates(vectors[0], vectors, rank="nope")

    def test_coordinates_ranking(self, testbed):
        network, _, hosts, vectors = testbed
        from repro.proximity import CoordinateSystem

        system = CoordinateSystem(dims=3)
        system.fit_landmarks(network, network.sample_hosts(8, np.random.default_rng(2)))
        coords = np.array(
            [system.solve_host(network, int(h)) for h in hosts[:20]]
        )
        order = rank_candidates(
            vectors[0],
            vectors[:20],
            rank="coordinates",
            coordinates=coords,
            query_coords=coords[0],
        )
        assert sorted(order.tolist()) == list(range(20))
        assert order[0] == 0  # itself at distance zero

    def test_coordinates_ranking_requires_embedding(self, testbed):
        _, _, _, vectors = testbed
        with pytest.raises(ValueError):
            rank_candidates(vectors[0], vectors, rank="coordinates")


class TestHybridSearch:
    def _true_nearest(self, network, hosts, query_idx):
        lat = network.latencies_from(int(hosts[query_idx]))[hosts].astype(np.float64)
        lat[query_idx] = np.inf
        return float(lat.min())

    def test_finds_nearest_with_moderate_budget(self, testbed):
        network, space, hosts, vectors = testbed
        hits = 0
        for q in (0, 7, 20, 33):
            true_nn = self._true_nearest(network, hosts, q)
            curve = hybrid_search(
                network, int(hosts[q]), vectors[q], hosts, vectors, budget=15
            )
            if curve.stretch_after(15, true_nn) == pytest.approx(1.0):
                hits += 1
        assert hits >= 3  # landmark guidance works with ~15 probes

    def test_budget_respected_and_charged(self, testbed):
        network, _, hosts, vectors = testbed
        before = network.stats.snapshot()
        hybrid_search(network, int(hosts[0]), vectors[0], hosts, vectors, budget=7)
        assert network.stats.delta(before)["hybrid_probe"] == 7

    def test_excludes_query_host(self, testbed):
        network, _, hosts, vectors = testbed
        curve = hybrid_search(
            network, int(hosts[4]), vectors[4], hosts, vectors, budget=5
        )
        assert int(hosts[4]) not in curve.best_host.tolist()

    def test_budget_one_is_landmark_only(self, testbed):
        """The first point of the lmk+rtt series is landmark clustering alone."""
        network, _, hosts, vectors = testbed
        curve = hybrid_search(
            network, int(hosts[9]), vectors[9], hosts, vectors, budget=1
        )
        order = rank_candidates(vectors[9], vectors)
        expected = next(int(hosts[i]) for i in order if int(hosts[i]) != int(hosts[9]))
        assert curve.best_after(1)[0] == expected

    def test_more_budget_never_hurts(self, testbed):
        network, _, hosts, vectors = testbed
        true_nn = self._true_nearest(network, hosts, 12)
        curve = hybrid_search(
            network, int(hosts[12]), vectors[12], hosts, vectors, budget=40
        )
        values = [curve.stretch_after(b, true_nn) for b in (1, 5, 15, 40)]
        assert values == sorted(values, reverse=True)

    def test_beats_random_probing_on_average(self, testbed):
        """Landmark pre-selection must outperform blind probing at equal
        budget -- the paper's core claim about proximity generation."""
        network, _, hosts, vectors = testbed
        rng = np.random.default_rng(4)
        budget = 8
        hybrid_total, random_total = 0.0, 0.0
        for q in range(0, 40, 5):
            true_nn = self._true_nearest(network, hosts, q)
            if true_nn <= 0:
                continue
            curve = hybrid_search(
                network, int(hosts[q]), vectors[q], hosts, vectors, budget=budget
            )
            hybrid_total += curve.stretch_after(budget, true_nn)
            pool = [h for h in hosts.tolist() if h != int(hosts[q])]
            sample = rng.choice(pool, size=budget, replace=False)
            best = min(network.latency(int(hosts[q]), int(h)) for h in sample)
            random_total += best / true_nn
        assert hybrid_total < random_total
