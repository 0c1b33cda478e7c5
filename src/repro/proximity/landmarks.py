"""Landmark clustering: vectors, orderings and landmark numbers.

Every node measures its RTT to a small set of landmark hosts
"randomly scattered in the Internet".  The resulting *landmark
vector* positions the node in an n-dimensional *landmark space*
(Figure 7 of the paper); nodes close in the physical network land
close in landmark space.  Three derived forms are used:

* the raw **vector** -- used at rendezvous nodes to sort map entries
  by proximity to a requester;
* the **landmark order** -- the permutation of landmarks sorted by
  increasing RTT; the (coarser) technique of Topologically-Aware CAN,
  reproduced here as a baseline;
* the **landmark number** -- a scalar obtained by binning the vector
  onto a grid of ``2^(BITS_PER_DIM * index_dims)`` cells and threading a
  Hilbert curve through the grid; closeness in landmark number
  indicates physical closeness, and the number doubles as the DHT key
  under which a node's soft-state is stored.

Per the paper's appendix optimisation, only a few components of the
vector (the *landmark vector index*, :data:`INDEX_DIMS` of them) feed the
landmark number; the full vector is still carried in soft-state
records for the final sort.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.proximity.hilbert import HilbertCurve

#: grid resolution ``x``: each landmark-space axis is cut into ``2^x``
#: bins; a smaller ``x`` makes it likelier that two nodes share a
#: landmark number (coarser clustering)
BITS_PER_DIM = 5
#: vector components that feed the landmark number (the *landmark
#: vector index*), fewer when there are fewer landmarks
INDEX_DIMS = 4


@dataclass
class LandmarkSet:
    """The chosen landmark hosts plus a normalisation bound."""

    hosts: np.ndarray
    #: RTT value mapped to the top edge of the landmark-space grid (ms)
    max_rtt_ms: float

    @property
    def count(self) -> int:
        return len(self.hosts)


def select_landmarks(
    network,
    count: int,
    rng: np.random.Generator,
    strategy: str = "random",
) -> LandmarkSet:
    """Pick ``count`` landmark hosts from the topology.

    Strategies (the paper uses ``random`` -- "randomly scattered in
    the Internet"; the others exist for the placement ablation):

    * ``random`` -- uniform over all nodes;
    * ``transit`` -- uniform over backbone (transit) nodes, modelling
      landmarks hosted at well-connected infrastructure;
    * ``spread`` -- greedy max-min latency separation (2-approximate
      k-center): pick a random seed, then repeatedly add the host
      farthest from the chosen set.  Separation costs extra
      calibration probes, charged as usual.

    The normalisation bound is estimated from the measured pairwise
    landmark RTTs (times 1.25), mirroring a deployment where the
    landmarks calibrate the grid among themselves.
    """
    if count < 2:
        raise ValueError("need at least two landmarks")
    if strategy == "random":
        hosts = network.sample_hosts(count, rng, stub_only=False)
    elif strategy == "transit":
        pool = network.topology.transit_nodes()
        if count > len(pool):
            raise ValueError(f"only {len(pool)} transit nodes available")
        hosts = rng.choice(pool, size=count, replace=False)
    elif strategy == "spread":
        # candidates: a modest random pool to keep probing realistic
        pool = network.sample_hosts(
            min(8 * count, len(network.topology.stub_nodes())), rng,
            stub_only=False,
        )
        chosen = [int(pool[int(rng.integers(0, len(pool)))])]
        best_gap = {int(h): np.inf for h in pool}
        while len(chosen) < count:
            newest = chosen[-1]
            farthest, farthest_gap = None, -1.0
            for host in pool:
                host = int(host)
                if host in chosen:
                    continue
                rtt = network.rtt(newest, host, category="landmark_calibration")
                best_gap[host] = min(best_gap[host], rtt)
                if best_gap[host] > farthest_gap:
                    farthest, farthest_gap = host, best_gap[host]
            chosen.append(farthest)
        hosts = np.asarray(chosen, dtype=np.int64)
    else:
        raise ValueError(f"unknown landmark strategy {strategy!r}")
    max_rtt = 0.0
    for i, a in enumerate(hosts):
        for b in hosts[i + 1 :]:
            max_rtt = max(max_rtt, network.rtt(int(a), int(b), category="landmark_calibration"))
    return LandmarkSet(hosts=hosts, max_rtt_ms=max_rtt * 1.25)


def measure_vector(
    network, host: int, landmarks: LandmarkSet, category: str = "landmark_probe"
) -> np.ndarray:
    """Measure ``host``'s landmark RTT vector (charged as probes)."""
    return network.rtt_many(int(host), landmarks.hosts, category=category)


def landmark_order(vector: np.ndarray) -> tuple:
    """Landmark permutation sorted by increasing RTT (ties by index).

    This is Topologically-Aware CAN's "landmark ordering": nodes with
    equal permutations are deemed close; the technique cannot
    differentiate nodes that share an ordering.
    """
    return tuple(int(i) for i in np.argsort(vector, kind="stable"))


class LandmarkSpace:
    """Landmark set + grid + Hilbert curve = landmark numbers.

    ``landmarks`` are the landmark hosts and the normalisation bound;
    the first ``index_dims = min(INDEX_DIMS, landmarks.count)``
    components of a vector, each cut into ``2^BITS_PER_DIM`` bins,
    make its landmark number.
    """

    def __init__(self, landmarks: LandmarkSet):
        self.landmarks = landmarks
        self.index_dims = min(INDEX_DIMS, landmarks.count)
        self.curve = HilbertCurve(bits=BITS_PER_DIM, dims=self.index_dims)
        # vector-prefix bytes -> (bin cell, landmark number); the same
        # registered vectors are re-binned on every publish/lookup, so
        # the derivation is memoised (bounded -- see _MEMO_LIMIT)
        self._derived: dict = {}

    #: entries kept in the vector -> (cell, number) memo
    _MEMO_LIMIT = 1 << 16

    @property
    def total_bits(self) -> int:
        """Bits in a landmark number."""
        return BITS_PER_DIM * self.index_dims

    @property
    def number_range(self) -> int:
        """Exclusive upper bound on landmark numbers."""
        return 1 << self.total_bits

    def measure(self, network, host: int, category: str = "landmark_probe") -> np.ndarray:
        """Measure a host's landmark vector (charged)."""
        return measure_vector(network, host, self.landmarks, category)

    def _derive(self, vector: np.ndarray) -> tuple:
        """(grid cell, landmark number) of a vector, memoised."""
        prefix = np.ascontiguousarray(
            np.asarray(vector, dtype=np.float64)[: self.index_dims]
        )
        key = prefix.tobytes()
        hit = self._derived.get(key)
        if hit is not None:
            return hit
        side = 1 << BITS_PER_DIM
        scaled = prefix / self.landmarks.max_rtt_ms
        cells = np.clip((scaled * side).astype(np.int64), 0, side - 1)
        cell = tuple(int(c) for c in cells)
        derived = (cell, self.curve.encode(cell))
        if len(self._derived) >= self._MEMO_LIMIT:
            self._derived.clear()
        self._derived[key] = derived
        return derived

    def number(self, vector: np.ndarray) -> int:
        """Landmark number: Hilbert index of the vector's grid cell."""
        return self._derive(vector)[1]
