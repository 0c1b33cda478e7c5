"""Statistical helpers for experiment aggregation.

Quick-scale experiment cells are noisy (hundreds of routes on a
~1k-node topology); a bootstrap confidence interval says how far a
mean over them can be trusted.
"""

from __future__ import annotations

import numpy as np


#: coverage of the interval
CONFIDENCE = 0.95
#: bootstrap resamples behind one interval
RESAMPLES = 2000


def bootstrap_ci(values, rng: np.random.Generator = None) -> tuple:
    """Percentile-bootstrap :data:`CONFIDENCE` interval for the mean.

    Returns ``(low, high)``; degenerates to the point value for
    samples of size one.
    """
    values = np.asarray(list(values), dtype=np.float64)
    if values.size == 0:
        raise ValueError("cannot bootstrap an empty sample")
    if values.size == 1:
        point = float(values.mean())
        return point, point
    if rng is None:
        # standalone convenience only -- aggregation loops must thread
        # one shared Generator through every call, or all their cells
        # reuse identical resample indices and the CIs correlate
        rng = np.random.default_rng(0)
    indices = rng.integers(0, values.size, size=(RESAMPLES, values.size))
    stats = np.mean(values[indices], axis=1)
    alpha = (1.0 - CONFIDENCE) / 2.0
    return (
        float(np.quantile(stats, alpha)),
        float(np.quantile(stats, 1.0 - alpha)),
    )
