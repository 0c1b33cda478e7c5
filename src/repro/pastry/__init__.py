"""Pastry port of the global-soft-state technique.

Pastry is the paper's recurring comparison point: its
proximity-neighbor selection picks routing-table entries "according
to proximity metric among all nodes that satisfy the constraint of
the logical overlay (the nodeId prefix)", bootstrapped by
expanding-ring search or heuristics -- exactly the machinery the
paper replaces with global soft-state.  For Pastry, a *region* is the
set of nodes sharing an id prefix, and the appendix prescribes: "we
can use a prefix of the nodeIds to partition the logical space into
grids" for map placement.

Like the Chord port, this package is a geometry over the shared ring
substrate (:mod:`repro.overlay.ring`, :mod:`repro.softstate.ring`):

* :mod:`repro.pastry.ring` -- what makes the ring Pastry: base-4
  digit ids, leaf sets, per-(row, digit) routing-table slots with
  pluggable choice, standard prefix routing with the leaf-set shortcut.
* :mod:`repro.pastry.softstate` -- Pastry's regions: id prefixes (an
  id prefix is an aligned ring interval, so placement reuses the 1-d
  landmark-number scaling) and the one region a slot selection queries.
"""

from repro.pastry.ring import FirstSlotPolicy, PastryRing
from repro.pastry.softstate import PastrySoftState, build_soft_state_pastry

__all__ = [
    "FirstSlotPolicy",
    "PastryRing",
    "PastrySoftState",
    "build_soft_state_pastry",
]
