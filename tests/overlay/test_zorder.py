"""Z-order keys equal the per-dimension geometry they replace.

Every zone and routed point carries one integer key, its coordinate
codes interleaved dimension 0 first (:func:`repro.overlay.zone.interleave`),
and ``EcanOverlay.decide`` reads delivery, the expressway level, the
slot and the slot's validity off one XOR of two keys.  A routed point's
key is exact only down to the overlay's deepest zone, so every rule is
checked with that key and with the full one.  The references
here are the rules those keys replaced: a bit-by-bit interleave,
``Zone.contains``, ``Zone.overlaps(cell_zone(...))`` and the
per-dimension ``decide`` (:func:`reference_decide`), the float
sibling rule (:func:`float_is_sibling`) and the grid-tuple order of
sibling leaf pairs (:func:`grid_leaf_pairs`), checked on random dyadic
zones with points one ulp either side of their boundaries and on
churned overlays of 1 to 3 dimensions.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.overlay import EcanOverlay
from repro.overlay.can import CanNode, CanOverlay
from repro.overlay.zone import (
    CODE_BITS,
    Zone,
    cell_zone,
    index_cell,
    interleave,
    point_code,
    point_key,
)

DIMS = st.integers(1, 4)


def bitwise_interleave(codes) -> int:
    """Reference: the top bit of every code, dimension 0 first, then the
    next bit of every code, and so on."""
    key = 0
    for bit in range(CODE_BITS - 1, -1, -1):
        for code in codes:
            key = key << 1 | (code >> bit & 1)
    return key


def refused(fn, *args) -> bool:
    try:
        fn(*args)
    except ValueError:
        return True
    return False


@st.composite
def dyadic_zone(draw, dims: int):
    """A zone reached from the root by up to 60 random halvings, never
    finer than the code resolution."""
    zone = Zone.root(dims)
    for _ in range(draw(st.integers(0, min(60, CODE_BITS * dims)))):
        zone = zone.split()[draw(st.integers(0, 1))]
    return zone


@st.composite
def near_point(draw, zone):
    """A point inside ``zone``, on one of its bounds, or one ulp either
    side of one, per coordinate."""
    point = []
    for lo, hi in zip(zone.lo, zone.hi):
        x = draw(
            st.sampled_from(
                [lo, math.nextafter(lo, -1.0), hi, math.nextafter(hi, 0.0)]
            )
            | st.floats(lo, hi, exclude_max=True)
        )
        point.append(x % 1.0 if x >= 0.0 else 1.0 - 2**-52)
    return tuple(point)


class TestKeys:
    @given(data=st.data(), dims=DIMS)
    def test_interleave_is_the_bitwise_interleave(self, data, dims):
        code = st.integers(0, (1 << CODE_BITS) - 1)
        codes = data.draw(st.lists(code, min_size=dims, max_size=dims))
        assert interleave(codes) == bitwise_interleave(codes)

    @given(data=st.data(), dims=DIMS)
    def test_point_key_interleaves_the_point_code(self, data, dims):
        point = data.draw(
            st.tuples(*[st.floats(0.0, 1.0, exclude_max=True)] * dims)
        )
        bits = CODE_BITS * dims
        full = point_key(point, dims, bits)
        assert full == bitwise_interleave(point_code(point, dims))
        # a key asked to be exact to ``depth`` bits is exact there
        depth = data.draw(st.integers(0, bits))
        assert point_key(point, dims, depth) >> (bits - depth) == full >> (bits - depth)

    @given(
        dims=DIMS,
        point=st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=5),
        depth=st.sampled_from([0, 26, CODE_BITS * 4]),
    )
    def test_point_key_refuses_what_point_code_refuses(self, dims, point, depth):
        refuses = refused(point_code, point, dims)
        assert refused(point_key, point, dims, depth) == refuses

    @given(data=st.data(), dims=DIMS, level=st.integers(0, 24))
    def test_cell_and_index_round_trip(self, data, dims, level):
        coordinate = st.integers(0, (1 << level) - 1)
        cell = tuple(data.draw(st.lists(coordinate, min_size=dims, max_size=dims)))
        index = interleave(cell)
        assert index < 1 << level * dims
        assert index_cell(index, level, dims) == cell
        other = data.draw(st.integers(0, (1 << level * dims) - 1))
        assert interleave(index_cell(other, level, dims)) == other

    @given(data=st.data(), dims=st.integers(1, 3))
    @settings(max_examples=300)
    def test_index_is_the_key_prefix_of_the_cell(self, data, dims):
        point = data.draw(
            st.tuples(*[st.floats(0.0, 1.0, exclude_max=True)] * dims)
        )
        level = data.draw(st.integers(0, CODE_BITS))
        cell = tuple(int(x * (1 << level)) for x in point)
        bits = CODE_BITS * dims
        key = point_key(point, dims, bits)
        assert key >> (bits - level * dims) == interleave(cell)


class TestPrefixRules:
    @given(data=st.data(), dims=st.integers(1, 3))
    @settings(max_examples=300)
    def test_zone_key_prefix_is_containment(self, data, dims):
        zone = data.draw(dyadic_zone(dims))
        point = data.draw(near_point(zone))
        bits = CODE_BITS * dims
        for key in (point_key(point, dims, zone.depth), point_key(point, dims, bits)):
            assert (not (zone.key ^ key) >> (bits - zone.depth)) == zone.contains(point)

    @given(data=st.data(), dims=st.integers(1, 3))
    @settings(max_examples=300)
    def test_entry_validity_is_cell_overlap(self, data, dims):
        zone = data.draw(dyadic_zone(dims))
        ecan = EcanOverlay(dims=dims)
        ecan.can.nodes[0] = CanNode(node_id=0, host=0, zone=zone)
        level = data.draw(st.integers(0, 24))
        point = data.draw(near_point(zone))
        cell = tuple(int(x * (1 << level)) for x in point)
        # the cell holding the point, or one beside it
        nudge = st.sampled_from([0, 0, 1, -1])
        cell = tuple((c + data.draw(nudge)) % (1 << level) for c in cell)
        box = cell_zone(cell, level)
        assert ecan.entry_valid(0, level, cell) == zone.overlaps(box)
        assert not ecan.entry_valid(1, level, cell)  # not a member


def float_is_sibling(a: Zone, b: Zone) -> bool:
    """Reference: the float rule the prefix test replaced -- equal depth,
    equal extents off the last split's dimension, abutting in it, and
    re-joining into a box aligned at an even multiple of the child
    extent (abutting halves of two different parents, cousins, are not)."""
    if a.depth != b.depth or a.depth == 0:
        return False
    dim = (a.depth - 1) % a.dims
    for i in range(a.dims):
        if i != dim and (a.lo[i], a.hi[i]) != (b.lo[i], b.hi[i]):
            return False
    if not (a.hi[dim] == b.lo[dim] or b.hi[dim] == a.lo[dim]):
        return False
    extent = a.hi[dim] - a.lo[dim]
    return round(min(a.lo[dim], b.lo[dim]) / extent) % 2 == 0


def shifted(zone: Zone, dim: int, steps: int):
    """``zone`` moved ``steps`` of its own extent along ``dim`` (another
    zone of its depth), or None when that leaves the unit box."""
    extent = zone.hi[dim] - zone.lo[dim]
    lo = zone.lo[dim] + steps * extent
    if not 0.0 <= lo < 1.0:
        return None
    return Zone(
        zone.lo[:dim] + (lo,) + zone.lo[dim + 1:],
        zone.hi[:dim] + (lo + extent,) + zone.hi[dim + 1:],
        zone.depth,
    )


def assert_sibling_rule(a: Zone, b: Zone) -> bool:
    """``prefix ^ 1``, ``is_sibling`` and ``merge`` agree with the float
    rule on ``(a, b)``; returns whether they are siblings."""
    sibling = float_is_sibling(a, b)
    assert (a.depth == b.depth and a.prefix ^ 1 == b.prefix) == sibling, (a, b)
    assert a.is_sibling(b) == sibling, (a, b)
    if sibling:
        parent = Zone(
            tuple(map(min, a.lo, b.lo)), tuple(map(max, a.hi, b.hi)), a.depth - 1
        )
        assert a.merge(b) == parent
        assert parent.prefix == a.prefix >> 1
    else:
        with pytest.raises(ValueError):
            a.merge(b)
    return sibling


class TestSiblingRule:
    @given(data=st.data(), dims=st.integers(1, 3))
    @settings(max_examples=300)
    def test_sibling_is_the_prefix_with_its_last_bit_flipped(self, data, dims):
        zone = data.draw(dyadic_zone(dims))
        # itself, any zone, and every same-depth zone it abuts: its
        # sibling and its cousin along the last split's dimension
        others = [zone, data.draw(dyadic_zone(dims))]
        for dim in range(dims):
            others += [shifted(zone, dim, -1), shifted(zone, dim, 1)]
        for other in others:
            if other is not None:
                assert_sibling_rule(zone, other)

    @pytest.mark.parametrize("dims", [1, 2, 3])
    def test_every_pair_of_a_tiling(self, dims):
        seen = set()
        for depth in range(1, 7):
            tiling = [Zone.root(dims)]
            for _ in range(depth):
                tiling = [half for zone in tiling for half in zone.split()]
            for a, b in itertools.product(tiling, repeat=2):
                abut = a.is_neighbor(b, torus=False)
                seen.add((abut, assert_sibling_rule(a, b)))
        # abutting non-siblings include the cousin pairs
        assert seen == {(True, True), (True, False), (False, False)}


def grid_leaf_pairs(can) -> list:
    """Reference: sibling leaf pairs in the order ``_leaf_pairs`` had
    when zones were indexed by grid tuple -- deepest depth first, then
    the lower half's grid index, the other half found by flipping the
    last split's dimension."""
    by_depth = {}
    for node_id, node in can.nodes.items():
        zone = node.zone
        grid = tuple(round(lo / (hi - lo)) for lo, hi in zip(zone.lo, zone.hi))
        by_depth.setdefault(zone.depth, {})[grid] = node_id
    pairs = []
    for depth in sorted(by_depth, reverse=True):
        bucket = by_depth[depth]
        dim = (depth - 1) % can.dims
        for index in sorted(bucket):
            upper = index[:dim] + (index[dim] ^ 1,) + index[dim + 1:]
            if not index[dim] & 1 and upper in bucket:
                pairs.append((bucket[index], bucket[upper]))
    return pairs


@pytest.mark.parametrize("dims", [1, 2, 3])
def test_leaf_pairs_keep_the_grid_order(dims):
    can = CanOverlay(dims=dims, rng=np.random.default_rng(11 + dims))
    for i in range(48):
        can.join(i, host=i)
    rng = np.random.default_rng(dims)
    depths = set()
    for step in range(24):
        pairs = list(can._leaf_pairs())
        assert pairs == grid_leaf_pairs(can), step
        depths |= {can.nodes[a].zone.depth for a, _ in pairs}
        victim = int(rng.choice(sorted(can.nodes)))
        if step % 2:
            can.takeover_dead(victim)
        else:
            can.leave(victim)
    assert len(depths) > 1


def reference_decide(ecan, current, point, visited):
    """Reference: the per-dimension forwarding rule ``decide`` replaced,
    answering ``(next_id, level, cell, needs_repair)`` with float
    containment, per-dimension code XORs and ``Zone.overlaps``."""
    if current.contains(point):
        return None
    zone = current.zone
    diff = 0
    for own, dest in zip(zone.code, point_code(point, ecan.dims)):
        diff |= own ^ dest
    level = CODE_BITS + 1 - diff.bit_length()
    if level <= zone.max_level:
        cell = tuple(int(x * (1 << level)) for x in point)
        entry = ecan.table_of(current.node_id).get(level, {}).get(cell)
        holder = ecan.nodes.get(entry)
        box = cell_zone(cell, level)
        if holder is None or not holder.zone.overlaps(box):
            return None, level, cell, True
        if entry not in visited:
            return entry, level, cell, False
    return ecan.can.closest_neighbor(current, point, visited), None, None, False


def churned(dims: int) -> EcanOverlay:
    """32 joins, then 6 leaves and 6 crashes (``takeover_dead``): stale
    and emptied slots, and members moved by a zone reassignment."""
    ecan = EcanOverlay(dims=dims, rng=np.random.default_rng(7 + dims))
    for i in range(32):
        ecan.join(i, host=i)
    rng = np.random.default_rng(dims)
    for depart in [ecan.leave, ecan.takeover_dead] * 6:
        depart(int(rng.choice(sorted(ecan.nodes))))
    return ecan


@pytest.mark.parametrize("dims", [1, 2, 3])
def test_decide_agrees_with_the_per_dimension_rule(dims):
    ecan = churned(dims)
    axis = [k / 16 for k in range(16)] + [1 - 2**-52]
    outcomes = set()
    for current in ecan.nodes.values():
        # visiting the neighbours too makes greedy steps stick and
        # visited expressway entries fall through to them
        for visited in ({current.node_id}, {current.node_id, *current.neighbors}):
            for point in itertools.product(axis, repeat=dims):
                want = reference_decide(ecan, current, point, visited)
                # the key a route computes, and the full one
                got, exact = [
                    ecan.decide(current, point_key(point, dims, depth), point, visited)
                    for depth in (ecan.can.max_depth, CODE_BITS * dims)
                ]
                assert got == exact, (current.node_id, point)
                if want is None:
                    assert got is None, (current.node_id, point)
                    outcomes.add("delivered")
                    continue
                next_id, level, index, repair = got
                slot = None if level is None else index_cell(index, level, dims)
                assert (next_id, level, slot, repair) == want, (current.node_id, point)
                outcomes.add(
                    "repair" if repair
                    else "stuck" if next_id is None
                    else "expressway" if level is not None
                    else "greedy"
                )
    # a 1-D zone fits a cell at its own depth, so every miss is an
    # expressway level there
    assert outcomes >= {"delivered", "repair", "stuck", "expressway"}
    assert ("greedy" in outcomes) == (dims > 1)
