"""Nearest-neighbour quality of a candidate ranking: two ablations.

Both ask the question that matters to the hybrid search -- how close
is the best of the top-``k`` ranked candidates to the true nearest
host -- and differ only in what produces the ranking:

* :func:`run_landmark_placement` -- does landmark *placement* matter?
  The paper scatters landmarks "randomly in the Internet"; the binning
  literature argues for well-separated or infrastructure-hosted ones.
  Expected shape: placement is second-order -- every strategy lands in
  the same band once a few RTT probes are in the loop.
* :func:`run_refinements` -- the §5.4 proposals for shrinking the
  second performance gap (landmark groups, SVD de-noising over many
  landmarks) against plain vector ranking, on a *noisy* latency model
  with per-probe measurement jitter.  Expected shape: every ranking
  improves with the probe budget; probing forgives ranking errors,
  which is the paper's hybrid insight in the first place.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.common import Scale, bulk_vectors, current_scale, get_network
from repro.netsim import GeneratedLatencyModel, Network, NoisyLatencyModel
from repro.proximity import select_landmarks
from repro.proximity.refinements import LandmarkGroups, SvdProjector

PLACEMENTS = ("random", "transit", "spread")


def default_budgets(scale: Scale) -> tuple:
    """The preset's hybrid probe budgets up to 16."""
    return tuple(b for b in scale.hybrid_budgets if b <= 16) or (1, 8)


def _vector_rank(vectors):
    """Plain landmark-vector ranking: hosts by distance to the query's."""
    return lambda q: np.argsort(
        np.linalg.norm(vectors - vectors[q], axis=1), kind="stable"
    )


def _stretch_rows(network, hosts, queries, budgets, column, rankings) -> list:
    """One row per (ranking, budget): mean over ``queries`` of the best
    of the top-``budget`` ranked hosts over the true nearest host."""
    latencies = {
        int(q): network.latencies_from(int(hosts[q]))[hosts].astype(np.float64)
        for q in queries
    }
    rows = []
    for name, rank in rankings.items():
        for budget in budgets:
            stretches = []
            for q, latency in latencies.items():
                lat = latency.copy()
                lat[q] = np.inf
                true_nn = float(lat.min())
                if true_nn <= 0:
                    continue  # co-located true nearest: stretch undefined
                order = [i for i in rank(q) if i != q][:budget]
                stretches.append(float(lat[order].min()) / true_nn)
            rows.append(
                {
                    column: name,
                    "probes": budget,
                    "mean_stretch": float(np.mean(stretches)),
                }
            )
    return rows


def run_landmark_placement(
    scale: Scale = None,
    seed: int = 0,
    num_landmarks: int = 15,
    budgets: tuple = None,
) -> list:
    """Rows: {"placement", "probes", "mean_stretch"} per strategy."""
    if scale is None:
        scale = current_scale()
    if budgets is None:
        budgets = default_budgets(scale)
    network = get_network("tsk-large", "generated", scale.topo_scale, seed)
    hosts = network.topology.stub_nodes()
    queries = np.random.default_rng(seed + 13).choice(
        len(hosts), size=scale.nn_queries, replace=False
    )
    rankings = {}
    for strategy in PLACEMENTS:
        landmarks = select_landmarks(
            network, num_landmarks, np.random.default_rng(seed + 7), strategy=strategy
        )
        rankings[strategy] = _vector_rank(
            bulk_vectors(network, landmarks, hosts, charge=False)
        )
    return _stretch_rows(network, hosts, queries, budgets, "placement", rankings)


def run_refinements(
    scale: Scale = None,
    seed: int = 0,
    num_landmarks: int = 16,
    budgets: tuple = None,
) -> list:
    """Rows: {"ranking", "probes", "mean_stretch"} per ranking."""
    if scale is None:
        scale = current_scale()
    if budgets is None:
        budgets = default_budgets(scale)
    base = get_network("tsk-large", "generated", scale.topo_scale, seed)
    network = Network(
        base.topology,
        NoisyLatencyModel(base=GeneratedLatencyModel(), sigma=0.3, seed=seed + 5),
    )
    rng = np.random.default_rng(seed + 7)
    landmarks = select_landmarks(network, num_landmarks, rng)
    hosts = network.topology.stub_nodes()
    clean = bulk_vectors(network, landmarks, hosts, charge=False)
    # per-probe measurement jitter: the regime SVD/groups are meant to
    # suppress (queueing noise on individual RTT samples)
    vectors = clean * rng.lognormal(0.0, 0.35, size=clean.shape)
    groups = LandmarkGroups.split(num_landmarks, 4)
    projector = SvdProjector(5).fit(vectors)
    queries = rng.choice(len(hosts), size=scale.nn_queries, replace=False)
    rankings = {
        "plain-vector": _vector_rank(vectors),
        "landmark-groups": lambda q: groups.rank(vectors[q], vectors),
        "svd-denoised": lambda q: projector.rank(vectors[q], vectors),
    }
    return _stretch_rows(network, hosts, queries, budgets, "ranking", rankings)
