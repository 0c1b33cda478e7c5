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
right by ``52 - l`` for every ``l <= 52``.  Interleaving the codes'
bits, dimension 0 first, gives one *Z-order key* (:func:`point_key`,
:attr:`Zone.key`) in which the splits of a zone at depth ``k`` are
exactly the top ``k`` bits, and the level-``l`` cell is the top
``l * d`` bits (its Z-order *index*, :func:`interleave` of the cell;
:func:`index_cell` reverses it).  So containment, the first level at
which a point leaves a zone's cells, and the cell there are each one
XOR and one shift of two keys.
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

    def overlaps(self, other: "Zone") -> bool:
        """Half-open box intersection: the boxes share a point.

        Boxes that only touch along a boundary do not overlap.
        """
        for a_lo, a_hi, b_lo, b_hi in zip(self.lo, self.hi, other.lo, other.hi):
            if not (a_lo < b_hi and b_lo < a_hi):
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
        """True if ``self`` and ``other`` are the two halves of one split:
        their :attr:`prefix` differs in the last split's bit only."""
        return self.depth == other.depth and self.prefix ^ 1 == other.prefix

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
    def code(self) -> tuple:
        """The lower corner as integer codes (see :func:`point_code`).

        Every boundary is dyadic, so the conversion is exact.  Computed
        once per (immutable) instance, then a plain attribute read.
        """
        return tuple([int(lo * _CODE_SCALE) for lo in self.lo])

    @cached_property
    def key(self) -> int:
        """The lower corner as one Z-order key (see :func:`point_key`).

        Its top :attr:`depth` bits are this zone's splits and the rest
        are zero, so a point key lies in the zone exactly when the two
        agree on those bits: ``(key ^ point_key) >> (CODE_BITS * dims -
        depth) == 0``, the half-open float test of :meth:`contains`.
        """
        return interleave(self.code)

    @cached_property
    def prefix(self) -> int:
        """This zone's splits as an integer: the top :attr:`depth` bits
        of :attr:`key`, the last split lowest.  Its sibling's prefix is
        ``prefix ^ 1``, its parent's ``prefix >> 1``, and the zone of a
        depth holding point key ``k`` has prefix ``k >> (CODE_BITS *
        dims - depth)``."""
        return self.key >> (CODE_BITS * self.dims - self.depth)


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


@lru_cache(maxsize=None)
def _spread(dims: int) -> tuple:
    """``(table, s1, s2, s3)`` for ``dims``-dimensional keys:
    ``table[v]`` is the 13-bit ``v`` with its bit ``b`` moved to bit
    ``b * dims``, and chunk ``j`` of a code lands ``sj`` bits up."""
    table = [0]
    for value in range(1, 1 << 13):
        table.append(table[value >> 1] << dims | (value & 1))
    step = 13 * dims
    return tuple(table), step, 2 * step, 3 * step


def interleave(codes) -> int:
    """The Z-order key of per-dimension codes, dimension 0 first.

    Bit ``b`` of ``codes[i]`` (each below ``2^CODE_BITS``) becomes bit
    ``b * d + d - 1 - i``, so dimension 0 leads every group of ``d`` bits.

    Of a level-``l`` cell this is its Z-order index, the top ``l * d``
    bits of the key of any point inside it.
    """
    table, s1, s2, s3 = _spread(len(codes))
    key = 0
    for c in codes:  # four 13-bit chunks hold a CODE_BITS = 52 code
        key = key << 1 | (
            table[c >> 39] << s3
            | table[c >> 26 & 0x1FFF] << s2
            | table[c >> 13 & 0x1FFF] << s1
            | table[c & 0x1FFF]
        )
    return key


def point_key(point, dims: int, depth: int) -> int:
    """``point``'s Z-order key, exact in at least its top ``depth`` bits.

    It is the point's :func:`point_code` interleaved (the same ValueError
    for a point that code refuses).  A decision at a zone reads no key
    bit below the zone's depth, so a router passes the overlay's deepest
    (``CanOverlay.max_depth``); while that is at most 13 splits per
    dimension, only the codes' top 13 bits are spread and the rest read 0.
    """
    codes = point_code(point, dims)
    if depth > 13 * dims:
        return interleave(codes)
    table = _spread(dims)[0]
    key = 0
    for c in codes:
        key = key << 1 | table[c >> 39]
    return key << 39 * dims


@lru_cache(maxsize=1 << 14)
def index_cell(index: int, level: int, dims: int) -> tuple:
    """The level-``level`` cell whose Z-order index is ``index``: the
    inverse of :func:`interleave` on a cell."""
    cell = [0] * dims
    for bit in range(level * dims - 1, -1, -1):
        i = dims - 1 - bit % dims
        cell[i] = cell[i] << 1 | (index >> bit & 1)
    return tuple(cell)


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
