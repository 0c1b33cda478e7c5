"""Synthetic workloads.

The paper's evaluation workload is simple -- "measurements are made
for twice the number of nodes in the overlay", i.e. 2N routes between
random member pairs -- but the examples and ablation benches also use
skewed key popularity to exercise load imbalance.
"""

from __future__ import annotations

import numpy as np


def poisson_arrivals(
    rate: float, count: int, rng: np.random.Generator
) -> np.ndarray:
    """``count`` cumulative arrival times of a Poisson process.

    Inter-arrival gaps are exponential with mean ``1/rate`` (arrivals
    per second), so the returned array is strictly increasing and
    starts after the first gap.  The open-loop load driver
    (:mod:`repro.runtime.loadgen`) fires one request at each offset
    regardless of how long earlier requests take -- the standard
    open-loop arrival model.
    """
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    return np.cumsum(rng.exponential(1.0 / rate, size=count))


def uniform_points(count: int, dims: int, rng: np.random.Generator) -> np.ndarray:
    """Uniformly random lookup keys (points of the unit cube)."""
    return rng.random((count, dims))


def zipf_points(
    count: int,
    dims: int,
    rng: np.random.Generator,
    distinct: int = 64,
) -> np.ndarray:
    """Zipf-popular lookup keys over ``distinct`` hot points.

    Rank ``k`` is drawn with probability proportional to
    ``k**-1.1`` -- a convenient stand-in for skewed object
    popularity when exercising forwarding-load imbalance.
    """
    if distinct < 1:
        raise ValueError("distinct must be >= 1")
    hot = rng.random((distinct, dims))
    weights = 1.0 / np.arange(1, distinct + 1) ** 1.1
    weights /= weights.sum()
    choices = rng.choice(distinct, size=count, p=weights)
    return hot[choices]
