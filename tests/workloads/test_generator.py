"""Workload generators."""

import numpy as np
import pytest

from repro.workloads import poisson_arrivals, uniform_points, zipf_points


class TestUniformPoints:
    def test_range(self, rng):
        points = uniform_points(100, 3, rng)
        assert points.shape == (100, 3)
        assert (points >= 0).all() and (points < 1).all()


class TestPoissonArrivals:
    def test_monotone_increasing(self, rng):
        arrivals = poisson_arrivals(50.0, 200, rng)
        assert arrivals.shape == (200,)
        assert (np.diff(arrivals) > 0).all()
        assert arrivals[0] > 0

    def test_mean_gap_matches_rate(self, rng):
        rate = 250.0
        arrivals = poisson_arrivals(rate, 20_000, rng)
        gaps = np.diff(np.concatenate([[0.0], arrivals]))
        assert gaps.mean() == pytest.approx(1.0 / rate, rel=0.05)

    def test_seeded_determinism(self):
        a = poisson_arrivals(10.0, 64, np.random.default_rng(7))
        b = poisson_arrivals(10.0, 64, np.random.default_rng(7))
        c = poisson_arrivals(10.0, 64, np.random.default_rng(8))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_zero_count(self, rng):
        assert poisson_arrivals(5.0, 0, rng).shape == (0,)

    def test_validation(self, rng):
        with pytest.raises(ValueError, match="rate"):
            poisson_arrivals(0.0, 10, rng)
        with pytest.raises(ValueError, match="rate"):
            poisson_arrivals(-1.0, 10, rng)
        with pytest.raises(ValueError, match="count"):
            poisson_arrivals(1.0, -1, rng)


class TestZipfPoints:
    def test_skew(self, rng):
        points = zipf_points(2000, 2, rng, distinct=16)
        assert points.shape == (2000, 2)
        _, counts = np.unique(points[:, 0], return_counts=True)
        counts = np.sort(counts)[::-1]
        # head much heavier than tail
        assert counts[0] > 4 * counts[-1]

    def test_at_most_distinct_values(self, rng):
        points = zipf_points(500, 2, rng, distinct=8)
        assert len(np.unique(points[:, 0])) <= 8

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            zipf_points(10, 2, rng, distinct=0)
