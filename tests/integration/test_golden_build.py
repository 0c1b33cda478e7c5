"""Golden values for one seeded build, churn and read sequence.

The caches under the simulator's hot path (shard views, owner memo,
owner index) are only legitimate if they never change what
a run *does*.  ``check_invariants`` re-derives each of them from the
authoritative state; this file pins them against history: for a fixed
seed the charged messages, every expressway table, every map (ids and ``seq``),
every neighbour set, every zone and a batch of routes and lookups hash
to the digests recorded below.  A hot-path change that moves any of
them changed behaviour, not just speed.

The digests hold integers only (ids, counts, grid indices), so they do
not depend on how a numpy build prints or rounds floats.  To re-pin
after an *intended* behaviour change, run this file as a script.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.core import OverlayParams, TopologyAwareOverlay
from repro.netsim import ManualLatencyModel, Network
from repro.softstate.maps import Region

N = 256
SEED = 23

GOLDEN = {
    "build": {
        "built": "00104653a70b2c74",
        "churned": "faeed7085a99c6ba",
        "routes": "27ef13f8eebe59ad",
        "lookups": "c3b5798dab6ef96c",
        "stats": "4c9c2513ddcfc16f",
    },
    "build_bulk": {
        "built": "ca2e87f7a655d011",
        "churned": "50effd793c00f49c",
        "routes": "1e7135343230a123",
        "lookups": "c3b5798dab6ef96c",
        "stats": "a046a49f1481bfa1",
    },
}


def digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def grid_index(zone) -> list:
    """A zone's integer grid index among the equal-shaped zones of its
    depth: each lower corner over its extent (exact on dyadic zones)."""
    return [int(lo / (hi - lo)) for lo, hi in zip(zone.lo, zone.hi)]


def structure(overlay) -> dict:
    """Every piece of overlay state a join or departure can move."""
    can = overlay.ecan.can
    members = sorted(can.nodes)
    return {
        "stats": sorted(overlay.network.stats.snapshot().items()),
        "tables": [
            [
                node_id,
                [
                    [level, sorted([*cell, entry] for cell, entry in row.items())]
                    for level, row in sorted(overlay.ecan.table_of(node_id).items())
                ],
            ]
            for node_id in members
        ],
        "maps": [
            [
                region.level,
                list(region.cell),
                [[node_id, stored.seq] for node_id, stored in bucket.items()],
            ]
            for region, bucket in sorted(
                overlay.store.maps.items(), key=lambda kv: (kv[0].level, kv[0].cell)
            )
        ],
        "neighbors": [[n, sorted(can.nodes[n].neighbors)] for n in members],
        "zones": [
            [n, [[can.nodes[n].zone.depth, grid_index(can.nodes[n].zone)]]]
            for n in members
        ],
    }


def churn(overlay, rng) -> None:
    """Graceful leaves, instant-takeover removals and joins, interleaved."""
    for step in range(12):
        victim = int(rng.choice(overlay.node_ids))
        overlay.remove_node(victim, graceful=step % 2 == 0)
        if step % 3 != 2:
            overlay.add_node()
    for _ in range(4):
        overlay.add_node()


def routes(overlay, rng, count: int = 200) -> list:
    ids = np.array(overlay.node_ids)
    out = []
    for _ in range(count):
        src, dst = rng.choice(ids, size=2, replace=False)
        result, _ = overlay.route_between(int(src), int(dst))
        out.append(
            [
                result.path,
                result.owner,
                result.expressway_hops,
                result.can_hops,
                result.repairs,
            ]
        )
    return out


def lookups(overlay, rng, count: int = 100) -> list:
    ids = np.array(overlay.node_ids)
    dims = overlay.ecan.dims
    out = []
    for _ in range(count):
        querier = int(rng.choice(ids))
        level = int(rng.integers(1, 6))
        cell = tuple(int(c) for c in rng.integers(0, 1 << level, size=dims))
        result = overlay.store.lookup(querier, Region(level, cell))
        out.append(
            [
                querier,
                level,
                list(cell),
                [r.node_id for r in result.records],
                result.served_by,
                result.widened,
            ]
        )
    return out


def run(topology, mode: str) -> dict:
    network = Network(topology, ManualLatencyModel())
    overlay = TopologyAwareOverlay(
        network, OverlayParams(num_nodes=N, landmarks=8, seed=SEED)
    )
    getattr(overlay, mode)(N)
    rng = np.random.default_rng(SEED)
    observed = {"built": digest(structure(overlay))}
    churn(overlay, rng)
    observed["churned"] = digest(structure(overlay))
    observed["routes"] = digest(routes(overlay, rng))
    observed["lookups"] = digest(lookups(overlay, rng))
    observed["stats"] = digest(sorted(network.stats.snapshot().items()))
    return observed


@pytest.mark.parametrize("mode", sorted(GOLDEN))
def test_seeded_run_matches_golden_digests(small_topology, mode):
    assert run(small_topology, mode) == GOLDEN[mode]


if __name__ == "__main__":
    from repro.netsim import TransitStubConfig, generate_transit_stub

    # the ``small_topology`` fixture of tests/conftest.py
    topo = generate_transit_stub(TransitStubConfig.tsk_large(0.5), seed=7)
    print(json.dumps({mode: run(topo, mode) for mode in sorted(GOLDEN)}, indent=4))
