"""Small statistics helpers shared by experiments and benches."""

from __future__ import annotations

import numpy as np


def summarize(values) -> dict:
    """Mean/median/percentile summary of a sample."""
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        return {"n": 0, "mean": float("nan"), "median": float("nan"),
                "p90": float("nan"), "p95": float("nan"),
                "min": float("nan"), "max": float("nan")}
    return {
        "n": int(arr.size),
        "mean": float(arr.mean()),
        "median": float(np.median(arr)),
        "p90": float(np.percentile(arr, 90)),
        "p95": float(np.percentile(arr, 95)),
        "min": float(arr.min()),
        "max": float(arr.max()),
    }


def gini(values) -> float:
    """Gini coefficient of a non-negative sample (imbalance measure)."""
    arr = np.sort(np.asarray(list(values), dtype=np.float64))
    if arr.size == 0 or arr.sum() == 0:
        return 0.0
    n = arr.size
    index = np.arange(1, n + 1)
    return float((2 * (index * arr).sum() - (n + 1) * arr.sum()) / (n * arr.sum()))
