"""What ``build_bulk``'s expressway tables are: one refresh round's.

``build`` fills each newcomer's table at join time, against the
tessellation and maps of that moment, and never revisits it as later
joins split zones and move records.  ``build_bulk`` fills every table
once, against the final overlay.  For a policy that reads the final
state (soft-state lookups, the oracle), ``build`` followed by one
``build_table`` round over every member gives exactly the bulk
tables.  The random policy draws its stream in a different order, so
it is left out.
"""

import pytest

from repro.core import OverlayParams, TopologyAwareOverlay
from repro.netsim import ManualLatencyModel, Network

N = 96


def tables(overlay) -> dict:
    table_of = overlay.ecan.table_of
    return {
        node_id: {level: dict(row) for level, row in table_of(node_id).items()}
        for node_id in overlay.node_ids
    }


def grown(topology, policy: str, mode: str) -> TopologyAwareOverlay:
    overlay = TopologyAwareOverlay(
        Network(topology, ManualLatencyModel()),
        OverlayParams(num_nodes=N, policy=policy, seed=23),
    )
    getattr(overlay, mode)(N)
    return overlay


@pytest.mark.parametrize("policy", ["softstate", "optimal"])
def test_one_refresh_round_gives_the_bulk_tables(small_topology, policy):
    incremental = grown(small_topology, policy, "build")
    at_join = tables(incremental)
    for node_id in incremental.node_ids:
        incremental.ecan.build_table(node_id)
    refreshed = tables(incremental)
    assert refreshed == tables(grown(small_topology, policy, "build_bulk"))
    # the round is not a no-op: join-time tables are stale
    assert refreshed != at_join
