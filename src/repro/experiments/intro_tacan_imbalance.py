"""§1 claim: Topologically-Aware CAN's geographic layout is unbalanced.

"Our study shows that, for a typical 10,000-node Topologically-Aware
CAN, 10% of the nodes can occupy 80-98% of the entire Cartesian space,
and some nodes have to maintain 20-30 neighbors."  (Digits restored
per DESIGN.md.)

Topologically-Aware CAN (Ratnasamy et al.) *constrains* the overlay
layout with landmark ordering: the space is cut into m! equal slices
along one axis, one per landmark permutation, and a joining node
picks its random point inside its own ordering's slice.  Because node
orderings are wildly non-uniform (most stubs agree on the landmark
ranking), a few slices absorb almost everyone while untouched slices
remain as huge zones owned by early joiners.

This runner builds such a CAN over a transit-stub topology and
reports the concentration of zone volume and the neighbor-count tail.
"""

from __future__ import annotations

import math

import numpy as np

from repro.experiments.common import Scale, bulk_vectors, current_scale, get_network
from repro.overlay import CanOverlay
from repro.proximity import select_landmarks
from repro.proximity.landmarks import landmark_order


def _ordering_slice(order: tuple, num_landmarks: int) -> int:
    """Lexicographic rank of a landmark permutation (its slice index)."""
    rank = 0
    remaining = list(range(num_landmarks))
    for position, landmark in enumerate(order):
        index = remaining.index(landmark)
        rank += index * math.factorial(num_landmarks - position - 1)
        remaining.pop(index)
    return rank


def build_tacan(
    network,
    num_nodes: int,
    num_landmarks: int = 4,
    seed: int = 0,
) -> CanOverlay:
    """A Topologically-Aware CAN: join points constrained by ordering."""
    rng = np.random.default_rng(seed)
    landmarks = select_landmarks(network, num_landmarks, rng)
    hosts = network.sample_hosts(num_nodes, rng)
    vectors = bulk_vectors(network, landmarks, hosts)
    slices = math.factorial(num_landmarks)
    can = CanOverlay(dims=2, rng=rng)
    for i, host in enumerate(hosts):
        order = landmark_order(vectors[i])
        slice_index = _ordering_slice(order, num_landmarks)
        x = (slice_index + float(rng.random())) / slices
        point = (min(x, np.nextafter(1.0, 0.0)), float(rng.random()))
        can.join(int(i), int(host), point=point)
    return can


def concentration(volumes: np.ndarray, space_fraction: float) -> float:
    """Smallest fraction of nodes owning ``space_fraction`` of the space."""
    ordered = np.sort(volumes)[::-1]
    cumulative = np.cumsum(ordered)
    needed = int(np.searchsorted(cumulative, space_fraction)) + 1
    return needed / len(volumes)


def run(
    topology: str = "tsk-large",
    latency: str = "generated",
    scale: Scale = None,
    num_landmarks: int = 4,
    seed: int = 0,
) -> dict:
    """Imbalance summary of a Topologically-Aware CAN vs a uniform CAN."""
    if scale is None:
        scale = current_scale()
    network = get_network(topology, latency, scale.topo_scale, seed)
    num_nodes = scale.overlay_nodes

    tacan = build_tacan(network, num_nodes, num_landmarks=num_landmarks, seed=seed)
    uniform = CanOverlay(dims=2, rng=np.random.default_rng(seed + 1))
    for i in range(num_nodes):
        uniform.join(i, host=i)

    def stats(can: CanOverlay) -> dict:
        volumes = np.array([n.total_volume() for n in can.nodes.values()])
        degrees = np.array([len(n.neighbors) for n in can.nodes.values()])
        return {
            "nodes_for_80pct_space": concentration(volumes, 0.80),
            "nodes_for_98pct_space": concentration(volumes, 0.98),
            "max_neighbors": int(degrees.max()),
            "mean_neighbors": float(degrees.mean()),
            "max_volume_ratio": float(volumes.max() / volumes.mean()),
        }

    return {
        "N": num_nodes,
        "landmarks": num_landmarks,
        "tacan": stats(tacan),
        "uniform": stats(uniform),
    }


def run_rows(scale: Scale = None, seed: int = 0, num_landmarks: int = 4) -> list:
    """:func:`run` as two table rows, one per layout."""
    result = run(scale=scale, num_landmarks=num_landmarks, seed=seed)
    return [
        {"layout": "topologically-aware CAN", **result["tacan"]},
        {"layout": "uniform CAN", **result["uniform"]},
    ]
