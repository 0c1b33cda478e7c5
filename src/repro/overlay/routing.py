"""Route results and path metrics."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(slots=True)
class RouteResult:
    """Outcome of routing a message through an overlay.

    Attributes
    ----------
    path:
        Sequence of overlay node ids visited, starting at the source.
    owner:
        Node id owning the destination point (None on failure).
    success:
        False if routing hit the hop budget or a dead end.
    expressway_hops / can_hops:
        For eCAN routes, the breakdown between high-order (expressway)
        jumps and default CAN hops; both zero for plain CAN routes.
    repairs:
        Number of routing-table entries repaired on the fly.
    retries:
        Extra delivery attempts beyond the first, per hop, summed over
        the route (nonzero only with faults armed and a retry policy).
    degraded:
        Expressway entries abandoned mid-route after failed delivery
        attempts (the route fell back to greedy CAN neighbors).
    """

    path: list = field(default_factory=list)
    owner: int = None
    success: bool = True
    expressway_hops: int = 0
    can_hops: int = 0
    repairs: int = 0
    retries: int = 0
    degraded: int = 0

    @property
    def hops(self) -> int:
        """Number of overlay forwarding hops."""
        return len(self.path) - 1

    def host_path(self, overlay) -> list:
        """Physical hosts along the route (for latency accumulation)."""
        return [overlay.nodes[n].host for n in self.path]

    def latency(self, overlay, network) -> float:
        """Accumulated one-way physical latency along the route (ms)."""
        return network.path_latency(self.host_path(overlay))
