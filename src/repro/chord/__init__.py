"""Chord port of the global-soft-state technique.

The paper claims its machinery "is generic for overlay networks such
as Pastry, Chord, and eCAN" and the appendix spells out the Chord
mapping: "simply use the landmark number as the key to store the
information of a node on a node whose ID is equal to or greater than
the landmark number".  This package demonstrates that generality as a
geometry over the shared ring substrate (:mod:`repro.overlay.ring`,
:mod:`repro.softstate.ring`), which owns membership, lazy repair, the
maps and the landmark+RTT selection policy:

* :mod:`repro.chord.ring` -- what makes the ring Chord: finger
  intervals with *flexible* finger choice (any node of the finger's
  ID interval qualifies -- Chord's equivalent of proximity-neighbor
  selection), successor ownership, greedy clockwise routing;
* :mod:`repro.chord.softstate` -- Chord's regions: aligned ID
  intervals, with records placed by scaling the landmark number into
  the interval (the 1-dimensional analogue of the eCAN placement -- no
  space-filling curve needed on a ring), and the region(s) a finger
  selection queries.

The ``ext_chord_generality`` experiment
(:mod:`repro.experiments.ring_generality`) shows the same
random < soft-state < oracle stretch ordering as on eCAN.
"""

from repro.chord.ring import ChordRing, SuccessorFingerPolicy
from repro.chord.softstate import ChordRegion, ChordSoftState

__all__ = [
    "ChordRegion",
    "ChordRing",
    "ChordSoftState",
    "SuccessorFingerPolicy",
]
