"""GNP-style coordinate embedding (related-work baseline).

"Towards global network positioning" (Ng & Zhang) embeds a few
landmark hosts into a low-dimensional Euclidean space from their
pairwise RTTs, then lets every other host solve its own coordinates
from its RTTs to the landmarks.  The paper cites this as the
"coordinate-based" alternative to landmark ordering; we reproduce it
so the hybrid search can be compared against coordinate ranking in an
ablation bench.

Implementation: classical multidimensional scaling seeds the landmark
coordinates, a Gauss-Newton refinement (scipy ``least_squares``)
polishes them, and each host's coordinates are solved with the same
refinement against the landmark anchors.
"""

from __future__ import annotations

import numpy as np

# ``scipy.optimize`` is imported by the two methods that solve: only
# Figure 3's ``gnp`` series reaches them, and the import costs every
# process that imports ``repro`` ~16 MB and ~0.15 s


def _classical_mds(distances: np.ndarray, dims: int) -> np.ndarray:
    """Classical MDS embedding of a symmetric distance matrix."""
    n = len(distances)
    squared = distances.astype(np.float64) ** 2
    centering = np.eye(n) - np.ones((n, n)) / n
    gram = -0.5 * centering @ squared @ centering
    eigenvalues, eigenvectors = np.linalg.eigh(gram)
    order = np.argsort(eigenvalues)[::-1][:dims]
    scale = np.sqrt(np.maximum(eigenvalues[order], 0.0))
    return eigenvectors[:, order] * scale


class CoordinateSystem:
    """Landmark-anchored Euclidean coordinates for hosts."""

    def __init__(self, dims: int = 4):
        if dims < 1:
            raise ValueError("dims must be >= 1")
        self.dims = dims
        self.landmark_hosts: np.ndarray = None
        self.landmark_coords: np.ndarray = None

    def fit_landmarks(self, network, landmark_hosts) -> None:
        """Measure pairwise landmark RTTs (charged as ``gnp_probe``) and
        embed the landmarks."""
        hosts = np.asarray(landmark_hosts, dtype=np.int64)
        n = len(hosts)
        if n <= self.dims:
            raise ValueError("need more landmarks than embedding dimensions")
        if n * (n - 1) // 2 < n * self.dims:
            raise ValueError(
                f"{n} landmarks give {n * (n - 1) // 2} pairwise constraints, "
                f"fewer than the {n * self.dims} coordinates to solve; use "
                f"more landmarks or fewer dimensions"
            )
        rtt = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                rtt[i, j] = rtt[j, i] = network.rtt(
                    int(hosts[i]), int(hosts[j]), category="gnp_probe"
                )
        # one-way latency target (embedding is defined on latency, factor-free)
        target = rtt / 2.0
        seed = _classical_mds(target, self.dims)

        def residuals(flat):
            coords = flat.reshape(n, self.dims)
            diff = coords[:, None, :] - coords[None, :, :]
            dist = np.linalg.norm(diff, axis=2)
            iu = np.triu_indices(n, k=1)
            return dist[iu] - target[iu]

        from scipy.optimize import least_squares

        solution = least_squares(residuals, seed.ravel(), method="lm", max_nfev=200)
        self.landmark_hosts = hosts
        self.landmark_coords = solution.x.reshape(n, self.dims)

    def solve_host(self, network, host: int, category: str = "gnp_probe") -> np.ndarray:
        """Measure RTTs to the landmarks and solve the host's coordinates."""
        if self.landmark_coords is None:
            raise RuntimeError("fit_landmarks must run first")
        rtts = network.rtt_many(int(host), self.landmark_hosts, category=category)
        return self.solve_from_rtts(rtts)

    def solve_from_rtts(self, rtts: np.ndarray) -> np.ndarray:
        """Coordinates from an already-measured landmark RTT vector."""
        target = np.asarray(rtts, dtype=np.float64) / 2.0
        anchors = self.landmark_coords
        seed = anchors[np.argmin(target)]

        def residuals(point):
            return np.linalg.norm(anchors - point, axis=1) - target

        from scipy.optimize import least_squares

        solution = least_squares(residuals, seed, method="lm", max_nfev=100)
        return solution.x

    def distance(self, a: np.ndarray, b: np.ndarray) -> float:
        """Estimated one-way latency between two embedded hosts."""
        return float(np.linalg.norm(np.asarray(a) - np.asarray(b)))
