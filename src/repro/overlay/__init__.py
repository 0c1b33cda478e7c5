"""CAN / eCAN overlay substrate.

* :mod:`repro.overlay.zone` -- dyadic hyper-rectangles of the CAN
  Cartesian space, with the quadtree cell arithmetic eCAN's
  high-order zones are built on.
* :mod:`repro.overlay.can` -- the basic content-addressable network:
  join (zone split), leave (takeover / merge), greedy routing over a
  d-dimensional torus.
* :mod:`repro.overlay.ecan` -- eCAN, the paper's Pastry-equivalent
  hierarchical CAN: high-order (expressway) routing tables with one
  representative per sibling cell at every level, giving O(log N)
  routing and the freedom in neighbor choice that proximity-neighbor
  selection exploits.
* :mod:`repro.overlay.ring` -- the id-ring substrate the Chord and
  Pastry ports are geometries over: consistent membership, policy-
  filled slot tables with lazy repair, routing-stretch measurement.
* :mod:`repro.overlay.routing` -- route results, stretch, and the one
  neighbor-policy interface every overlay fills its slots through.
"""

from repro.overlay.can import CanNode, CanOverlay
from repro.overlay.ecan import EcanOverlay
from repro.overlay.ring import IdRing
from repro.overlay.routing import (
    ClosestNeighborPolicy,
    NeighborPolicy,
    RandomNeighborPolicy,
    RouteResult,
)
from repro.overlay.zone import Zone

__all__ = [
    "CanNode",
    "CanOverlay",
    "ClosestNeighborPolicy",
    "EcanOverlay",
    "IdRing",
    "NeighborPolicy",
    "RandomNeighborPolicy",
    "RouteResult",
    "Zone",
]
