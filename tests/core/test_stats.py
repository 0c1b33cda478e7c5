"""Bootstrap confidence intervals."""

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
