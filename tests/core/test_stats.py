"""Bootstrap confidence intervals."""

import numpy as np
import pytest

from repro.core.stats import bootstrap_ci


class TestBootstrap:
    def test_ci_brackets_mean(self, rng):
        sample = rng.normal(10.0, 2.0, size=200)
        low, high = bootstrap_ci(sample, rng=rng)
        assert low < sample.mean() < high
        assert high - low < 2.0  # reasonably tight at n=200

    def test_singleton_degenerates(self):
        assert bootstrap_ci([7.0]) == (7.0, 7.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            bootstrap_ci([])
        with pytest.raises(ValueError):
            bootstrap_ci([1.0, 2.0], confidence=1.5)

    def test_wider_confidence_wider_interval(self, rng):
        sample = rng.normal(0.0, 1.0, size=50)
        narrow = bootstrap_ci(sample, confidence=0.5, rng=np.random.default_rng(1))
        wide = bootstrap_ci(sample, confidence=0.99, rng=np.random.default_rng(1))
        assert wide[1] - wide[0] > narrow[1] - narrow[0]

    def test_custom_statistic(self, rng):
        sample = rng.normal(5.0, 1.0, size=100)
        low, high = bootstrap_ci(sample, statistic=np.median, rng=rng)
        assert low < np.median(sample) < high
