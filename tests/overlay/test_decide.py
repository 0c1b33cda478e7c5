"""``EcanOverlay.decide`` observes; only ``_step`` repairs.

A dry run (a legitimacy predicate, an explanation of a route, a stamp)
must be able to ask where a hop goes without changing the answer.  From
every member to every point of a dyadic grid, ``decide`` must leave the
tables, the message counts and every random stream as it found them,
while naming at least one slot that needs repair; the same hops taken
through ``_step`` then do repair, and it shows.
"""

import copy
import itertools

import numpy as np
import pytest

from repro.core import OverlayParams, TopologyAwareOverlay
from repro.netsim import ManualLatencyModel, Network
from repro.netsim.network import MessageStats
from repro.overlay import EcanOverlay, RandomNeighborPolicy
from tests.overlay.test_integer_geometry import route_key

#: ``k / 16`` per coordinate: it holds every corner of every zone whose
#: sides are ``1/16`` or longer
GRID = [(x / 16, y / 16) for x, y in itertools.product(range(16), repeat=2)]


def churned_random(_topology):
    """64 joins under the random policy, then 8 leaves and 8 crashes."""
    stats = MessageStats()
    ecan = EcanOverlay(dims=2, rng=np.random.default_rng(11), stats=stats)
    for i in range(64):
        ecan.join(i, host=i)
    rng = np.random.default_rng(11)
    for depart in [ecan.leave] * 8 + [ecan.takeover_dead] * 8:
        depart(int(rng.choice(sorted(ecan.nodes))))
    return ecan, stats


def churned_softstate(topology):
    """64 built with the soft-state policy (each selection charges map
    lookups), then 8 crashes and 4 leaves."""
    network = Network(topology, ManualLatencyModel())
    overlay = TopologyAwareOverlay(
        network, OverlayParams(num_nodes=64, landmarks=6, seed=13)
    )
    overlay.build()
    rng = np.random.default_rng(13)
    for graceful in [False] * 8 + [True] * 4:
        overlay.remove_node(int(rng.choice(overlay.node_ids)), graceful=graceful)
    return overlay.ecan, network.stats


def snapshot(ecan, stats) -> tuple:
    rngs = [ecan.can.rng, ecan._fallback_rng]
    if isinstance(ecan.policy, RandomNeighborPolicy):
        rngs.append(ecan.policy.rng)
    return (
        copy.deepcopy(ecan._tables),
        stats.snapshot(),
        [copy.deepcopy(rng.bit_generator.state) for rng in rngs],
    )


@pytest.mark.parametrize("build", [churned_random, churned_softstate])
def test_decide_changes_nothing_and_step_repairs(build, tiny_topology):
    ecan, stats = build(tiny_topology)
    before = snapshot(ecan, stats)
    hops = [
        (current, route_key(ecan, point), point, {node_id})
        for node_id, current in ecan.can.nodes.items()
        for point in GRID
    ]
    decisions = [ecan.decide(*hop) for hop in hops]
    assert snapshot(ecan, stats) == before
    repairs = [hop for hop, d in zip(hops, decisions) if d is not None and d[3]]
    assert repairs, "no decision needed a repair"
    # a decision that needs a repair waits on it: no next hop yet
    assert all(d[0] is None for d in decisions if d is not None and d[3])
    # the same hops through the step repair: the snapshot sees it
    for hop in repairs:
        ecan._step(*hop, None)
    after = snapshot(ecan, stats)
    assert after[0] != before[0]
    assert after[1] != before[1], "no repair was charged"
