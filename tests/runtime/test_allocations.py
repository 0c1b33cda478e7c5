"""What a live lookup allocates per hop, pinned by counts instead of clocks.

A hop of a loopback lookup builds one :class:`Frame`: the decoded copy
the transport hands the next actor, which that actor forwards as it is
(its payload is already private to it).  The counts are read off a
counting ``Frame.__init__``, never off wall time.
"""

import asyncio

import numpy as np

from repro.core.config import NetworkParams, OverlayParams
from repro.runtime import Cluster, ClusterConfig
from repro.runtime.wire import Frame

NODES = 12


def test_a_lookup_of_h_hops_builds_h_plus_3_frames(monkeypatch):
    """The request, one decoded copy per transported frame (h ROUTE
    hops and the ACK), and the reply: h + 3, whatever h is."""
    built = [0]
    init = Frame.__init__

    def counting(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)

    async def scenario():
        config = ClusterConfig(
            nodes=NODES,
            network=NetworkParams(topo_scale=0.25, seed=3),
            overlay=OverlayParams(num_nodes=NODES, seed=5),
        )
        async with Cluster(config) as cluster:
            rng = np.random.default_rng(7)
            ids = cluster.node_ids
            monkeypatch.setattr(Frame, "__init__", counting)
            counts = []
            for _ in range(24):
                member = ids[int(rng.integers(0, len(ids)))]
                point = tuple(float(x) for x in rng.random(cluster.routing.dims))
                before = built[0]
                ack = await cluster.lookup(member, point)
                counts.append((ack["hops"], built[0] - before))
            return counts

    counts = asyncio.run(scenario())
    hops = {h for h, _ in counts}
    assert 0 in hops and max(hops) >= 2, "need both a local and a multi-hop lookup"
    assert [built for _, built in counts] == [h + 3 for h, _ in counts]
