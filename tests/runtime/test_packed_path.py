"""No silent fallback: every data-plane frame stays on the struct path.

``wire.pack_payload`` returning ``None`` is how a frame leaves the
packed path for JSON.  The codec keeps that door open for foreign
writers, but nothing ``Cluster.lookup`` / ``route`` / ``lookup_map`` /
``publish`` emits may walk through it.
"""

import asyncio

import numpy as np
import pytest

from repro.core.config import NetworkParams, OverlayParams
from repro.runtime import Cluster, ClusterConfig, wire
from repro.softstate.maps import Region


@pytest.fixture
def pack_spy(monkeypatch):
    """Every ``(kind, payload, packed bytes or None)`` the codec saw."""
    calls = []
    pack_payload = wire.pack_payload

    def spy(kind, payload):
        data = pack_payload(kind, payload)
        calls.append((kind, dict(payload), data))
        return data

    monkeypatch.setattr(wire, "pack_payload", spy)
    return calls


def widening_read(cluster):
    """A ``(querier, region)`` the store widens by >= 1 ring: a region
    whose serving node hosts none of its records (here, the first
    cell deep enough to have no map at all)."""
    store = cluster.overlay.store
    querier = min(cluster.node_ids)
    for level in range(1, 8):
        for cell in np.ndindex(*(1 << level,) * cluster.routing.dims):
            region = Region(level, tuple(int(c) for c in cell))
            if store.lookup(querier, region, charge=False).widened >= 1:
                return querier, region
    raise AssertionError("no widening read in this overlay")


def test_rpc_frames_never_leave_the_packed_path(pack_spy):
    async def scenario():
        config = ClusterConfig(
            nodes=24,
            network=NetworkParams(topo_scale=0.25, seed=3),
            overlay=OverlayParams(num_nodes=24, seed=5),
            wire_encoding="packed",
        )
        async with Cluster(config) as cluster:
            del pack_spy[:]  # boot traffic (JOIN and its ACK) is control plane
            rng = np.random.default_rng(11)
            ids = sorted(cluster.node_ids)
            dims = cluster.routing.dims
            widened = []
            for _ in range(32):
                src, dst = (int(x) for x in rng.choice(ids, size=2, replace=False))
                await cluster.lookup(src, tuple(float(x) for x in rng.random(dims)))
                await cluster.route(src, dst)
                cell = tuple(int(c) for c in rng.integers(0, 2, size=dims))
                ack = await cluster.lookup_map(src, Region(1, cell))
                widened.append(ack["widened"])
                ack = await cluster.publish(src)
                assert ack["node_id"] == src and ack["regions"] >= 1
            querier, region = widening_read(cluster)
            ack = await cluster.lookup_map(querier, region)
            widened.append(ack["widened"])
            return widened

    widened = asyncio.run(scenario())
    assert all(type(count) is int for count in widened)
    assert widened[-1] >= 1, "the widening read must be part of the sample"
    kinds = {kind for kind, _, _ in pack_spy}
    assert kinds == {wire.MsgType.ROUTE, wire.MsgType.ACK}
    fell_back = [(kind.name, payload) for kind, payload, data in pack_spy if data is None]
    assert fell_back == []
    shapes = {frozenset(payload) for kind, payload, _ in pack_spy if kind is wire.MsgType.ACK}
    assert frozenset({"regions", "node_id"}) in shapes
    assert frozenset(
        {"owner", "path", "hops", "served_by", "widened", "records"}
    ) in shapes
