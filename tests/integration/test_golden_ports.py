"""Golden values for the Chord and Pastry ports, one run per policy.

The ports share one ring substrate and one soft-state engine; what a
seeded run *does* must not depend on how that code is factored.  For
both ports and every policy name their builders accept, this file pins
a small build on ``tiny_network``: every node's finger / slot table,
the routing stretch samples (exact floats, via ``tolist()``), then a
short churn (graceful leaves, one eager invalidation, lazy repairs on
the next routes, two late joins) and the per-category message counts
at the end.

Tables and stretch samples are recorded as digests, the message counts
as literals so a drift names its category.  To re-pin after an
*intended* behaviour change, run this file as a script.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.chord.softstate import build_soft_state_ring
from repro.netsim import ManualLatencyModel, Network
from repro.pastry import build_soft_state_pastry

N = 48
SEED = 4

#: port -> (builder, geometry kwargs, node attribute holding the table,
#: the ring method that rebuilds it)
PORTS = {
    "chord": (build_soft_state_ring, {"bits": 16}, "fingers", "build_fingers"),
    "pastry": (build_soft_state_pastry, {"digits": 10}, "table", "build_table"),
}

GOLDEN = {
    "chord": {
        "successor": {
            "built": "d7f174f15e9cb322",
            "stretch": "4b8247a9c3128083",
            "stretch_churned": "182660ad6657fd70",
            "churned": "1b8966117c79fb48",
            "stats": {
                "chord_route": 595,
                "eager_invalidate": 3,
                "join_route": 123,
                "landmark_calibration": 15,
                "neighbor_select": 548,
                "table_repair": 14
            }
        },
        "random": {
            "built": "721a780fb0b8397d",
            "stretch": "9f8dfabf8f899845",
            "stretch_churned": "d5f769de6396b1d0",
            "churned": "777a5894de8f36ce",
            "stats": {
                "chord_route": 602,
                "eager_invalidate": 8,
                "join_route": 121,
                "landmark_calibration": 15,
                "neighbor_select": 560,
                "table_repair": 17
            }
        },
        "softstate": {
            "built": "89e6a94bb725f544",
            "stretch": "878bba9a32f471fd",
            "stretch_churned": "28c8b80d3a5749de",
            "churned": "75c7c192b73ff638",
            "stats": {
                "chord_route": 620,
                "eager_invalidate": 6,
                "join_route": 117,
                "landmark_calibration": 15,
                "landmark_probe": 288,
                "neighbor_probe": 2844,
                "neighbor_select": 1064,
                "softstate_lookup": 3099,
                "softstate_publish": 1682,
                "table_repair": 33
            }
        },
        "optimal": {
            "built": "c613f2ba418e9b9f",
            "stretch": "35d725d8190f6299",
            "stretch_churned": "28c8b80d3a5749de",
            "churned": "23e74afae19fa073",
            "stats": {
                "chord_route": 622,
                "eager_invalidate": 6,
                "join_route": 120,
                "landmark_calibration": 15,
                "neighbor_select": 555,
                "table_repair": 18
            }
        }
    },
    "pastry": {
        "first": {
            "built": "21cd709f7fded1b9",
            "stretch": "ccfcf3f2d649fa4a",
            "stretch_churned": "ef058f250cd75291",
            "churned": "8c61d706a31b002b",
            "stats": {
                "eager_invalidate": 42,
                "join_route": 74,
                "landmark_calibration": 15,
                "neighbor_select": 719,
                "pastry_route": 371,
                "table_repair": 12
            }
        },
        "random": {
            "built": "c3dbc4c462b9b081",
            "stretch": "337863eef15dc5f7",
            "stretch_churned": "ee05060d54763254",
            "churned": "5da735e1e87ee149",
            "stats": {
                "eager_invalidate": 8,
                "join_route": 70,
                "landmark_calibration": 15,
                "neighbor_select": 706,
                "pastry_route": 348,
                "table_repair": 7
            }
        },
        "softstate": {
            "built": "3625359e0205f047",
            "stretch": "6c69ebd9c36115a4",
            "stretch_churned": "70b907a4eaa1880f",
            "churned": "407f7ccd670b85f8",
            "stats": {
                "eager_invalidate": 5,
                "join_route": 69,
                "landmark_calibration": 15,
                "landmark_probe": 288,
                "neighbor_probe": 3005,
                "neighbor_select": 1009,
                "pastry_route": 355,
                "softstate_lookup": 881,
                "softstate_publish": 232,
                "table_repair": 11
            }
        },
        "optimal": {
            "built": "3625359e0205f047",
            "stretch": "6c69ebd9c36115a4",
            "stretch_churned": "70b907a4eaa1880f",
            "churned": "8e431efeaa45dbda",
            "stats": {
                "eager_invalidate": 5,
                "join_route": 68,
                "landmark_calibration": 15,
                "neighbor_select": 703,
                "pastry_route": 355,
                "table_repair": 6
            }
        }
    }
}


def digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def tables(ring, attribute: str) -> list:
    return [
        [node_id, sorted([slot, entry] for slot, entry in
                         getattr(ring.nodes[node_id], attribute).items())]
        for node_id in ring.members()
    ]


def run(topology, port: str, policy: str) -> dict:
    builder, geometry, attribute, rebuild = PORTS[port]
    network = Network(topology, ManualLatencyModel())
    ring, _ = builder(
        network, N, landmarks=6, policy_name=policy, seed=SEED, **geometry
    )
    observed = {
        "built": digest(tables(ring, attribute)),
        "stretch": digest(
            ring.measure_stretch(80, rng=np.random.default_rng(11)).tolist()
        ),
    }
    victims = ring.members()[::8]
    for victim in victims:
        ring.leave(victim)
    ring.invalidate_member(victims[0])
    observed["stretch_churned"] = digest(
        ring.measure_stretch(80, rng=np.random.default_rng(12)).tolist()
    )
    for host in (3, 5):
        getattr(ring, rebuild)(ring.join(host))
    observed["churned"] = digest(tables(ring, attribute))
    observed["stats"] = dict(sorted(network.stats.snapshot().items()))
    return observed


CASES = [(port, policy) for port in sorted(GOLDEN) for policy in GOLDEN[port]]


@pytest.mark.parametrize("port,policy", CASES)
def test_seeded_port_matches_golden_values(tiny_topology, port, policy):
    assert run(tiny_topology, port, policy) == GOLDEN[port][policy]


if __name__ == "__main__":
    from repro.netsim import TransitStubConfig, generate_transit_stub

    # the ``tiny_topology`` fixture of tests/conftest.py
    topo = generate_transit_stub(TransitStubConfig.tsk_large(0.25), seed=7)
    print(json.dumps(
        {port: {p: run(topo, port, p) for p in GOLDEN[port]} for port in GOLDEN},
        indent=4,
    ))
