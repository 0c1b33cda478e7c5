"""Property-based churn: arbitrary op interleavings keep every overlay sound.

One hypothesis-driven harness applies a random sequence of
join/leave/route operations (and, on eCAN, crashes) to each overlay
family and asserts the family's invariants afterwards.  These are the
tests that caught the zone-sibling aliasing bug during development;
they guard the whole membership machinery.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.chord.ring import ChordRing
from repro.overlay import EcanOverlay
from repro.pastry.ring import PastryRing

# op encoding: 0/1 join, 2 leave, 3 route, 4 crash (eCAN only)
OPS = st.lists(st.integers(min_value=0, max_value=3), min_size=8, max_size=50)
ECAN_OPS = st.lists(st.integers(min_value=0, max_value=4), min_size=8, max_size=50)
RELAXED = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def apply_ops(ops, join, leave, route, members, rng, crash=None):
    next_id = 0
    for op in ops:
        population = members()
        if op in (0, 1) or not population:
            join(next_id)
            next_id += 1
        elif op == 2 and len(population) > 1:
            leave(population[int(rng.integers(0, len(population)))])
        elif op == 4 and len(population) > 1:
            crash(population[int(rng.integers(0, len(population)))])
        elif population:
            route(population[int(rng.integers(0, len(population)))])


def dyadic_point(rng) -> tuple:
    """A point ``k / 2**m`` per coordinate: on a zone boundary whenever
    some zone's side is ``2**-m`` or shorter."""
    m = int(rng.integers(0, 7))
    return tuple(float(k) / 2**m for k in rng.integers(0, 2**m, size=2))


class TestEcanChurnProperty:
    @given(ECAN_OPS)
    # four leaves strand a route to a point on a zone boundary when
    # the greedy step ranks by (distance, id) alone
    @example(ops=[0, 0, 0, 0, 2, 2, 2, 0, 0, 0, 0, 0, 0, 2, 2, 3])
    # when departures left members holding several zones, each read its
    # expressway level off its first zone only, so member 3's route
    # walked 3 -> 20 -> 8 -> 18 -> 19 -> 22 through multi-zone holders
    # 20 and 8 and stranded short of owner 23
    @example(
        ops=[
            0, 0, 2, 0, 3, 2, 0, 0, 3, 3, 0, 0, 0, 0, 0, 3, 2, 0, 0, 0, 2, 0, 0,
            2, 0, 2, 0, 2, 0, 2, 3, 0, 3, 3, 0, 0, 3, 0, 0, 2, 3, 0, 2, 0, 3, 3,
        ]
    )
    @RELAXED
    def test_random_ops_keep_invariants(self, ops):
        """Join, leave, crash (``takeover_dead``) and route in any order;
        a route op sends every member to one uniform and one dyadic
        boundary point, and each route is delivered to the member whose
        zone contains the point."""
        ecan = EcanOverlay(dims=2, rng=np.random.default_rng(3))
        rng = np.random.default_rng(5)

        def route(_start):
            for point in (tuple(rng.random(2)), dyadic_point(rng)):
                owner = ecan.can._resolve_owner(point)
                assert ecan.nodes[owner].contains(point)
                for src in list(ecan.nodes):
                    result = ecan.route(src, point)
                    assert result.success and result.owner == owner, (src, point)

        apply_ops(
            ops,
            join=lambda i: ecan.join(i, host=i),
            leave=ecan.leave,
            route=route,
            members=lambda: list(ecan.nodes),
            rng=rng,
            crash=ecan.takeover_dead,
        )
        if len(ecan):
            ecan.can.check_invariants()
            # membership index holds only live nodes, kept sorted
            for buckets in ecan._members.values():
                for node_ids in buckets.values():
                    assert list(node_ids) == sorted(set(node_ids))
                    assert set(node_ids) <= set(ecan.nodes)


class TestChordChurnProperty:
    @given(OPS)
    @RELAXED
    def test_random_ops_keep_ring_sound(self, ops):
        ring = ChordRing(bits=12, rng=np.random.default_rng(3))
        rng = np.random.default_rng(5)

        def join(i):
            node_id = ring.join(host=i)
            ring.build_fingers(node_id)

        def route(start):
            key = int(rng.integers(0, ring.space))
            result = ring.route(start, key)
            assert result.success
            assert result.owner == ring.successor_of(key)

        apply_ops(
            ops,
            join=join,
            leave=ring.leave,
            route=route,
            members=ring.members,
            rng=rng,
        )
        if len(ring):
            # the sorted id list and the node map agree
            assert sorted(ring.nodes) == ring.members()


class TestPastryChurnProperty:
    @given(OPS)
    @RELAXED
    def test_random_ops_keep_overlay_sound(self, ops):
        ring = PastryRing(digits=10, rng=np.random.default_rng(3))
        rng = np.random.default_rng(5)

        def join(i):
            node_id = ring.join(host=i)
            ring.build_table(node_id)

        def route(start):
            key = int(rng.integers(0, ring.space))
            result = ring.route(start, key)
            assert result.success
            assert result.owner == ring.numerically_closest(key)

        apply_ops(
            ops,
            join=join,
            leave=ring.leave,
            route=route,
            members=ring.members,
            rng=rng,
        )
        if len(ring):
            assert sorted(ring.nodes) == ring.members()
            for node_id in ring.members():
                for (row, digit), entry in ring.nodes[node_id].table.items():
                    if entry in ring.nodes:
                        assert ring.digit(entry, row) == digit
