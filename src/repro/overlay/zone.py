"""Zones: dyadic hyper-rectangles of the CAN Cartesian space.

All zones are produced from the unit hypercube ``[0, 1)^d`` by
repeated halving, cycling through the dimensions in order (the split
dimension of a zone at depth ``k`` is ``k mod d``).  Halving is exact
in binary floating point, so zone boundaries compare exactly and all
the adjacency / containment predicates below are precise.

A zone at depth ``k`` has per-dimension extents ``2^-(k//d)`` or
``2^-(k//d + 1)`` and is therefore fully contained in exactly one
*quadtree cell* at every level ``l <= k // d``.  These cells are
eCAN's high-order zones (every ``2^d`` level-``l+1`` cells form a
level-``l`` cell); :meth:`Zone.cell` computes them.

The router reads the same geometry as integers: a coordinate ``x`` in
``[0, 1)`` becomes its *code* ``floor(x * 2^52)`` (:func:`point_code`,
:attr:`Zone.code`).  Scaling a double by a power of two is exact, so
the level-``l`` cell index ``floor(x * 2^l)`` is the code shifted
right by ``52 - l`` for every ``l <= 52``, and the first level at
which two codes disagree is read off the highest set bit of their XOR.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

#: bits of a coordinate code; level-``l`` cells are its top ``l`` bits
CODE_BITS = 52
_CODE_SCALE = float(1 << CODE_BITS)


@dataclass(frozen=True)
class Zone:
    """A half-open dyadic box ``[lo, hi)`` in the unit hypercube."""

    lo: tuple
    hi: tuple
    depth: int = 0

    @classmethod
    def root(cls, dims: int) -> "Zone":
        """The entire Cartesian space ``[0, 1)^dims``."""
        if dims < 1:
            raise ValueError("dims must be >= 1")
        return cls(lo=(0.0,) * dims, hi=(1.0,) * dims, depth=0)

    @property
    def dims(self) -> int:
        return len(self.lo)

    @property
    def split_dim(self) -> int:
        """The dimension along which this zone will next be split."""
        return self.depth % self.dims

    @cached_property
    def max_level(self) -> int:
        """Finest quadtree level at which this zone fits a single cell."""
        return self.depth // self.dims

    def volume(self) -> float:
        vol = 1.0
        for lo, hi in zip(self.lo, self.hi):
            vol *= hi - lo
        return vol

    def center(self) -> tuple:
        """Midpoint of the box, memoised per (immutable) instance."""
        got = self.__dict__.get("_center")
        if got is None:
            got = tuple((lo + hi) / 2.0 for lo, hi in zip(self.lo, self.hi))
            object.__setattr__(self, "_center", got)
        return got

    def contains(self, point) -> bool:
        """Half-open containment test."""
        lo = self.lo
        hi = self.hi
        for i in range(len(lo)):
            x = point[i]
            if x < lo[i] or x >= hi[i]:
                return False
        return True

    # -- splitting / merging ----------------------------------------------

    def split(self) -> tuple:
        """Halve along :attr:`split_dim`; returns (lower, upper) children."""
        dim = self.split_dim
        mid = (self.lo[dim] + self.hi[dim]) / 2.0
        lo_hi = list(self.hi)
        lo_hi[dim] = mid
        hi_lo = list(self.lo)
        hi_lo[dim] = mid
        lower = Zone(self.lo, tuple(lo_hi), self.depth + 1)
        upper = Zone(tuple(hi_lo), self.hi, self.depth + 1)
        return lower, upper

    def is_sibling(self, other: "Zone") -> bool:
        """True if ``self`` and ``other`` are the two halves of one split."""
        if self.depth != other.depth or self.depth == 0:
            return False
        dim = (self.depth - 1) % self.dims
        for i in range(self.dims):
            if i == dim:
                continue
            if self.lo[i] != other.lo[i] or self.hi[i] != other.hi[i]:
                return False
        if not (self.hi[dim] == other.lo[dim] or other.hi[dim] == self.lo[dim]):
            return False
        # Abutting same-shape zones may still belong to *different* parents
        # (upper half of one parent next to the lower half of the next);
        # true siblings re-join into a box aligned at an even multiple of
        # the child extent.
        extent = self.hi[dim] - self.lo[dim]
        child_index = round(min(self.lo[dim], other.lo[dim]) / extent)
        return child_index % 2 == 0

    def merge(self, other: "Zone") -> "Zone":
        """Re-join two sibling zones into their parent."""
        if not self.is_sibling(other):
            raise ValueError(f"{self} and {other} are not siblings")
        lo = tuple(min(a, b) for a, b in zip(self.lo, other.lo))
        hi = tuple(max(a, b) for a, b in zip(self.hi, other.hi))
        return Zone(lo, hi, self.depth - 1)

    # -- adjacency ----------------------------------------------------------

    def is_neighbor(self, other: "Zone", torus: bool = True) -> bool:
        """CAN neighbor test: abut in exactly one dim, overlap in the rest."""
        abut_count = 0
        for i in range(self.dims):
            a_lo, a_hi = self.lo[i], self.hi[i]
            b_lo, b_hi = other.lo[i], other.hi[i]
            if a_lo < b_hi and b_lo < a_hi:
                continue  # proper overlap in this dimension
            abuts = a_hi == b_lo or b_hi == a_lo
            if torus and not abuts:
                abuts = (a_hi == 1.0 and b_lo == 0.0) or (b_hi == 1.0 and a_lo == 0.0)
            if not abuts:
                return False  # disjoint with a gap: not a neighbor
            abut_count += 1
            if abut_count > 1:
                return False
        return abut_count == 1

    # -- distances -----------------------------------------------------------

    def distance_to_point(self, point, torus: bool = True) -> float:
        """Euclidean distance from the zone to ``point`` (0 if inside)."""
        total = 0.0
        los = self.lo
        his = self.hi
        for i in range(len(los)):
            lo = los[i]
            hi = his[i]
            x = point[i]
            if lo <= x < hi:
                continue
            gap_lo = x - lo if x >= lo else lo - x
            gap_hi = x - hi if x >= hi else hi - x
            gap = gap_lo if gap_lo < gap_hi else gap_hi
            if torus:
                wrapped = 1.0 - (hi - lo) - gap
                if wrapped < gap:
                    gap = wrapped
            total += gap * gap
        return total ** 0.5

    # -- quadtree cells --------------------------------------------------------

    def cell(self, level: int) -> tuple:
        """Index of the level-``level`` cell containing this zone.

        Valid for ``0 <= level <= max_level``; the cell index is a
        tuple of per-dimension integers in ``[0, 2^level)``, read off
        :meth:`cells`.
        """
        if level < 0 or level > self.max_level:
            raise ValueError(
                f"zone at depth {self.depth} has no single cell at level {level}"
            )
        return self.cells()[level]

    def cells(self) -> tuple:
        """Cells of every level ``0..max_level``, memoised as one tuple.

        The level-``l`` cell is the top ``l`` bits of each coordinate's
        :attr:`code` (exactly ``floor(lo * 2^l)``, see the module
        docstring).  Zones are immutable, so it is computed once per
        instance; routing and the member index read it by plain indexing.
        """
        got = self.__dict__.get("_cells_all")
        if got is None:
            code = self.code
            got = tuple(
                tuple([c >> (CODE_BITS - level) for c in code])
                for level in range(self.max_level + 1)
            )
            object.__setattr__(self, "_cells_all", got)
        return got

    @cached_property
    def code_shifts(self) -> tuple:
        """Per dimension, how far a code shifts right to keep only the
        bits this zone fixes (its splits along that dimension).

        A point lies in the zone exactly when, in every dimension, its
        code XOR :attr:`code` shifted right by this is zero: the half-open
        float test of :meth:`contains` read as integers.
        """
        splits, extra = divmod(self.depth, self.dims)
        return tuple(
            CODE_BITS - splits - (1 if i < extra else 0) for i in range(self.dims)
        )

    @cached_property
    def code(self) -> tuple:
        """The lower corner as integer codes (see :func:`point_code`).

        Every boundary is dyadic, so the conversion is exact.  Computed
        once per (immutable) instance, then a plain attribute read.
        """
        return tuple([int(lo * _CODE_SCALE) for lo in self.lo])


def point_code(point, dims: int) -> tuple:
    """``point`` as per-dimension integers ``floor(x * 2^CODE_BITS)``.

    The one gate a routed point passes: ValueError unless it has
    exactly ``dims`` coordinates and each satisfies ``0.0 <= x < 1.0``
    (NaN fails the comparison, so it is refused too).
    """
    code = []
    for x in point:
        if not 0.0 <= x < 1.0:
            break
        code.append(int(x * _CODE_SCALE))
    else:
        if len(code) == dims:
            return tuple(code)
    raise ValueError(f"point {point!r} is not {dims} coordinates in [0, 1)")


def cell_center(cell: tuple, level: int) -> tuple:
    """Center point of a quadtree cell."""
    side = 1.0 / (1 << level)
    return tuple((c + 0.5) * side for c in cell)


@lru_cache(maxsize=1 << 14)
def cell_zone(cell: tuple, level: int) -> Zone:
    """The quadtree cell as a :class:`Zone` (depth = level * dims)."""
    side = 1.0 / (1 << level)
    lo = tuple(c * side for c in cell)
    hi = tuple((c + 1) * side for c in cell)
    return Zone(lo, hi, depth=level * len(cell))


def parent_cell(cell: tuple) -> tuple:
    """Parent of a quadtree cell (one level coarser)."""
    return tuple(c >> 1 for c in cell)


@lru_cache(maxsize=1 << 14)
def sibling_cells(cell: tuple) -> tuple:
    """The other ``2^d - 1`` cells sharing this cell's parent, memoised."""
    dims = len(cell)
    base = tuple((c >> 1) << 1 for c in cell)
    siblings = []
    for mask in range(1 << dims):
        candidate = tuple(base[i] + ((mask >> i) & 1) for i in range(dims))
        if candidate != cell:
            siblings.append(candidate)
    return tuple(siblings)


def torus_distance(a, b) -> float:
    """Euclidean distance between points on the unit torus."""
    total = 0.0
    for x, y in zip(a, b):
        gap = abs(x - y)
        gap = min(gap, 1.0 - gap)
        total += gap * gap
    return total ** 0.5
