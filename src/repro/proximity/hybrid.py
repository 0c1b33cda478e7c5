"""The paper's hybrid landmark + RTT nearest-neighbor search.

Landmark clustering alone cannot tell close-by nodes apart; blind
probing is expensive.  The hybrid uses the landmark machinery only to
*rank* candidates, then spends a small RTT budget confirming the top
of the ranking:

1. rank all known candidates by a landmark-derived closeness metric
   to the querying node;
2. probe the top ``budget`` candidates' real RTTs;
3. keep the closest.

Ranking metrics (``rank=``):

* ``"vector"`` -- Euclidean distance between full landmark vectors
  (what a rendezvous node does when serving a map lookup);
* ``"number"`` -- absolute difference of scalar landmark numbers
  (what a raw map *placement* gives before the full-vector sort);
* ``"order"`` -- landmark-ordering similarity, the Topologically-Aware
  CAN baseline: candidates sharing a longer prefix of the query's
  landmark permutation rank higher, ties broken randomly (the paper's
  point is precisely that this cannot differentiate same-order nodes).
* ``"coordinates"`` -- Euclidean distance in a GNP-style coordinate
  embedding (see :mod:`repro.proximity.coordinates`).

A search with ``budget=1`` reproduces the "landmark clustering alone"
series of Figures 3 and 5 (the first point of the ``lmk+rtt`` curve).
"""

from __future__ import annotations

import numpy as np

from repro.netsim.faults import ProbeTimeout
from repro.proximity.ers import SearchCurve, _CurveBuilder


def rank_candidates(
    query_vector: np.ndarray,
    candidate_vectors: np.ndarray,
    rank: str = "vector",
    landmark_space=None,
    rng: np.random.Generator = None,
    coordinates=None,
    query_coords=None,
) -> np.ndarray:
    """Indices of candidates sorted from most to least promising."""
    candidate_vectors = np.asarray(candidate_vectors, dtype=np.float64)
    if rank == "vector":
        dist = np.linalg.norm(candidate_vectors - query_vector, axis=1)
        return np.argsort(dist, kind="stable")
    if rank == "number":
        if landmark_space is None:
            raise ValueError("rank='number' requires a landmark_space")
        query_number = landmark_space.number(query_vector)
        numbers = np.array(
            [landmark_space.number(v) for v in candidate_vectors], dtype=np.int64
        )
        return np.argsort(np.abs(numbers - query_number), kind="stable")
    if rank == "order":
        if rng is None:
            rng = np.random.default_rng(0)
        query_order = np.argsort(query_vector, kind="stable")
        orders = np.argsort(candidate_vectors, axis=1, kind="stable")
        agree = orders == query_order
        # length of the agreeing prefix of the permutation
        prefix = np.where(agree.all(axis=1), agree.shape[1], agree.argmin(axis=1))
        noise = rng.random(len(candidate_vectors))
        return np.lexsort((noise, -prefix))
    if rank == "coordinates":
        if coordinates is None or query_coords is None:
            raise ValueError("rank='coordinates' requires an embedding")
        dist = np.linalg.norm(coordinates - query_coords, axis=1)
        return np.argsort(dist, kind="stable")
    raise ValueError(f"unknown ranking {rank!r}")


def hybrid_search(
    network,
    query_host: int,
    query_vector: np.ndarray,
    candidate_hosts,
    candidate_vectors,
    budget: int = 30,
    rank: str = "vector",
    landmark_space=None,
    rng: np.random.Generator = None,
    coordinates=None,
    query_coords=None,
) -> SearchCurve:
    """Landmark-guided nearest-neighbor search; returns the probe curve.

    ``candidate_hosts`` / ``candidate_vectors`` describe the pool the
    ranking sees (in the full system: the records returned by a map
    lookup; in the Figure 3-6 experiments: every node in the system).
    The query host itself is skipped if present in the pool.

    Every probe is charged as ``hybrid_probe``.  Under an armed fault
    injector a candidate probe may time out: the candidate is skipped
    but still consumes one unit of probe budget.  If *every* probed
    candidate times out the
    search degrades to landmark-only ranking -- the top-ranked
    candidate is returned with its landmark-space distance standing in
    for the unmeasurable RTT.
    """
    candidate_hosts = np.asarray(candidate_hosts, dtype=np.int64)
    candidate_vectors = np.asarray(candidate_vectors, dtype=np.float64)
    order = rank_candidates(
        query_vector,
        candidate_vectors,
        rank=rank,
        landmark_space=landmark_space,
        rng=rng,
        coordinates=coordinates,
        query_coords=query_coords,
    )
    builder = _CurveBuilder(method=f"lmk+rtt[{rank}]")
    fallback_idx = None
    for idx in order:
        host = int(candidate_hosts[idx])
        if host == query_host:
            continue
        if fallback_idx is None:
            fallback_idx = idx
        try:
            builder.probe(network, query_host, host, "hybrid_probe")
        except ProbeTimeout:
            builder.failed()
        if builder._count >= budget:
            break
    if not builder.probes and fallback_idx is not None:
        # landmark-only degradation: trust the ranking outright
        estimate = float(
            np.linalg.norm(candidate_vectors[fallback_idx] - query_vector)
        )
        builder.record(estimate, int(candidate_hosts[fallback_idx]))
        builder.method = f"lmk-only[{rank}]"
        network.telemetry.count("degraded")
    return builder.build()
