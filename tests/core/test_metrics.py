"""Metric helpers."""

import numpy as np
import pytest

from repro.core.metrics import gini, summarize


class TestSummarize:
    def test_basic_stats(self):
        stats = summarize([1.0, 2.0, 3.0, 4.0])
        assert stats["n"] == 4
        assert stats["mean"] == pytest.approx(2.5)
        assert stats["median"] == pytest.approx(2.5)
        assert stats["min"] == 1.0
        assert stats["max"] == 4.0

    def test_percentiles_ordered(self):
        stats = summarize(np.arange(100))
        assert stats["median"] <= stats["p90"] <= stats["p95"] <= stats["max"]

    def test_empty(self):
        stats = summarize([])
        assert stats["n"] == 0
        for key in ("mean", "median", "p90", "p95", "min", "max"):
            assert np.isnan(stats[key])

    def test_singleton_collapses_every_stat(self):
        stats = summarize([3.5])
        assert stats["n"] == 1
        for key in ("mean", "median", "p90", "p95", "min", "max"):
            assert stats[key] == 3.5

    def test_accepts_generators(self):
        assert summarize(x for x in (1.0, 3.0))["mean"] == 2.0


class TestGini:
    def test_perfect_equality(self):
        assert gini([5, 5, 5, 5]) == pytest.approx(0.0, abs=1e-9)

    def test_total_inequality_approaches_one(self):
        values = [0] * 99 + [100]
        assert gini(values) > 0.9

    def test_empty_and_zero(self):
        assert gini([]) == 0.0
        assert gini([0, 0]) == 0.0

    def test_singleton_is_equal(self):
        assert gini([42.0]) == pytest.approx(0.0, abs=1e-9)

    def test_scale_invariant(self):
        a = [1, 2, 3, 4]
        assert gini(a) == pytest.approx(gini([10 * x for x in a]))
