"""Integer geometry equals float geometry.

The router reads zones and destinations as integer codes
(:func:`repro.overlay.zone.point_code`, :attr:`Zone.code`) interleaved
into Z-order keys (:func:`~repro.overlay.zone.point_key`,
:attr:`Zone.key`): the first level at which a destination leaves a
node's cell is the highest set bit of an XOR, and every cell index is
a shift.  The float arithmetic
those codes replaced lives here as the reference (:func:`float_cell`
and the scans built on it).  Over a churned overlay, with coordinates
drawn on, and one ulp either side of, every zone boundary, plus subnormals and ``1 - 2**-53``, the coded
router must name the same first differing level and cell, the same
owner and the same hops as the reference.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import OverlayParams, TopologyAwareOverlay
from repro.netsim import ManualLatencyModel, Network
from repro.netsim.faults import FaultPlan
from repro.overlay.zone import CODE_BITS, interleave, point_code, point_key


def route_key(ecan, point) -> int:
    """The key ``route`` and ``next_hop`` hand ``decide``."""
    return point_key(point, ecan.dims, ecan.can.max_depth)


def float_cell(point, level: int) -> tuple:
    """Reference: the level-``level`` quadtree cell holding ``point``."""
    scale = 1 << level
    return tuple(int(x * scale) for x in point)


def float_first_difference(zone, point) -> tuple:
    """Reference: ``(level, cell)`` of the first level at which
    ``point``'s cell differs from ``zone``'s, scanning
    ``zone.cells()``; ``(None, None)`` when none up to ``max_level``."""
    cells = zone.cells()
    for level in range(1, len(cells)):
        cell = float_cell(point, level)
        if cell != cells[level]:
            return level, cell
    return None, None


def brute_owner(can, point) -> int:
    """Reference: the one member with a zone containing ``point``."""
    (owner,) = [
        node_id
        for node_id, node in can.nodes.items()
        if node.zone.contains(point)
    ]
    return owner


#: coordinates no zone boundary produces but the encoding must survive
SPECIAL = (0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 0.5, 1 - 2**-53)


def build_churned(topology) -> TopologyAwareOverlay:
    """96 built (seed 5), then 16 crashes and 8 leaves: 72 members."""
    network = Network(topology, ManualLatencyModel())
    overlay = TopologyAwareOverlay(
        network, OverlayParams(num_nodes=96, landmarks=6, seed=5)
    )
    overlay.build()
    rng = np.random.default_rng(5)
    for graceful in [False] * 16 + [True] * 8:
        overlay.remove_node(int(rng.choice(overlay.node_ids)), graceful=graceful)
    return overlay


@pytest.fixture(scope="module")
def churned(tiny_topology):
    """72 members after crashes and leaves."""
    return build_churned(tiny_topology)


@pytest.fixture(scope="module")
def pools(churned):
    """(member ids, adversarial coordinates)."""
    nodes = churned.ecan.can.nodes
    edges = {x for node in nodes.values() for x in node.zone.lo + node.zone.hi}
    near = set(SPECIAL)
    for x in edges:
        near.update((x, math.nextafter(x, 0.0), math.nextafter(x, 1.0)))
    coords = sorted(x for x in near if 0.0 <= x < 1.0)
    return sorted(nodes), coords


def near_dyadic():
    """``k / 2^m`` (a cell boundary at level ``m``) or one ulp off it."""
    return st.tuples(
        st.integers(1, 40).flatmap(
            lambda m: st.integers(0, (1 << m) - 1).map(lambda k: k / (1 << m))
        ),
        st.sampled_from((0.0, 1.0, None)),
    ).map(lambda pair: pair[0] if pair[1] is None else math.nextafter(*pair))


def draw_point(data, pools) -> tuple:
    coordinate = st.one_of(
        st.sampled_from(pools[1]),
        near_dyadic().filter(lambda x: x < 1.0),
        st.floats(0.0, 1.0, exclude_max=True),
    )
    return data.draw(st.tuples(coordinate, coordinate))


def draw_member(data, pools) -> int:
    return data.draw(st.sampled_from(pools[0]))


class TestCodesMatchFloats:
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_cells_at_every_level(self, churned, pools, data):
        point = draw_point(data, pools)
        code = point_code(point, 2)
        for level in range(CODE_BITS + 1):
            shift = CODE_BITS - level
            assert tuple(c >> shift for c in code) == float_cell(point, level)
        zone = churned.ecan.can.nodes[draw_member(data, pools)].zone
        for level, cell in enumerate(zone.cells()):
            assert tuple(c >> (CODE_BITS - level) for c in zone.code) == cell
            assert float_cell(zone.lo, level) == cell == zone.cell(level)

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_first_differing_level_and_cell(self, churned, pools, data):
        ecan = churned.ecan
        node_id = draw_member(data, pools)
        point = draw_point(data, pools)
        current = ecan.can.nodes[node_id]
        level, cell = float_first_difference(current.zone, point)
        decision = ecan.decide(current, route_key(ecan, point), point, ())
        if current.contains(point):
            # a point inside the node's zone is delivered
            assert decision is None
            return
        _, got_level, got_index, _ = decision
        if got_level is not None:
            assert (got_level, got_index) == (level, interleave(cell))
        else:
            # no expressway hop: either no level differs, or the cell
            # that differs has no member other than this node
            assert level is None or ecan.members(level, cell, exclude=node_id) == []

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_delivered_verdict_is_float_containment(self, churned, pools, data):
        """``decide``'s delivered verdict (None) comes from the key XOR;
        it must equal ``CanNode.contains`` on zone boundaries and one
        ulp either side of them."""
        ecan = churned.ecan
        current = ecan.can.nodes[draw_member(data, pools)]
        point = draw_point(data, pools)
        decision = ecan.decide(current, route_key(ecan, point), point, ())
        assert (decision is None) == current.contains(point)

    def test_delivered_verdict_at_every_corner_of_every_zone(self, churned):
        """Per dimension the lower bound (inside), the ulp below it, the
        upper bound (outside) and the ulp below that, in every
        combination across dimensions, over the zone of every member."""
        ecan = churned.ecan
        checked = 0
        for current in ecan.can.nodes.values():
            zone = current.zone
            per_dim = [
                {lo, math.nextafter(lo, -1.0), hi % 1.0, math.nextafter(hi, 0.0)}
                for lo, hi in zip(zone.lo, zone.hi)
            ]
            for point in itertools.product(*per_dim):
                if min(point) < 0.0:
                    continue  # below 0.0 is no point
                decision = ecan.decide(current, route_key(ecan, point), point, ())
                assert (decision is None) == current.contains(point), (
                    current.node_id,
                    point,
                )
                checked += 1
        assert checked >= 9 * len(ecan.can.nodes)

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_resolve_owner_is_the_containing_member(self, churned, pools, data):
        point = draw_point(data, pools)
        can = churned.ecan.can
        assert can._resolve_owner(point) == brute_owner(can, point)

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_route_and_next_hop_choose_the_same_hops_and_deliver(
        self, churned, pools, data
    ):
        ecan = churned.ecan
        src = draw_member(data, pools)
        point = draw_point(data, pools)
        settled = ecan.route(src, point, category=None)  # lazy repairs land here
        plain = ecan.route(src, point, category=None)
        churned.arm_faults(FaultPlan(), seed=0)
        try:
            per_hop = ecan.route(src, point, category=None)
        finally:
            churned.disarm_faults()
        path, kinds = [src], []
        while True:
            next_id, kind = ecan.next_hop(path[-1], point, visited=path)
            if next_id is None:
                break
            kinds.append(kind)
            path.append(next_id)
        assert settled.path == plain.path == per_hop.path == path
        assert kind == "delivered"
        assert plain.owner == per_hop.owner == brute_owner(ecan.can, point)
        hops = (kinds.count("expressway"), kinds.count("can"))
        assert (plain.expressway_hops, plain.can_hops) == hops
        assert (per_hop.expressway_hops, per_hop.can_hops) == hops


class TestChurnedDeadEnd:
    """On this churned overlay ``(0.3125, 0.0)`` lies on a zone boundary,
    at distance 0 from its owner and from two other neighbours of it.
    Ranked by ``(distance, id)`` alone, 11 of the 72 members' routes
    stopped short of the owner (node 1, for one, after 9 hops); the
    greedy step now ranks the neighbour that contains the point first."""

    POINT = (0.3125, 0.0)

    def test_the_can_invariants_hold(self, churned):
        churned.ecan.can.check_invariants()
        assert len(churned.node_ids) == 72

    def test_every_member_reaches_the_owner(self, tiny_topology):
        # a fresh overlay: the module's is repaired by the routes above
        overlay = build_churned(tiny_topology)
        ecan = overlay.ecan
        owner = brute_owner(ecan.can, self.POINT)
        stuck = [
            src
            for src in sorted(ecan.can.nodes)
            if ecan.route(src, self.POINT, category=None).owner != owner
        ]
        assert stuck == []
