"""Transport fault injection: drops, partitions, poisoned streams.

Satellite coverage for the live self-healing stack: both transports
must agree that crashed hosts, lossy links and partition cuts *refuse
the send* (the failure detector's death evidence), that a peer's
ERROR frame resolves the pending request future instead of leaving it
to time out, and that corrupt bytes on a TCP connection poison only
that connection's decoder.
"""

import asyncio
import math

import pytest

from repro.core.config import NetworkParams, OverlayParams
from repro.netsim.faults import FaultInjector, FaultPlan, Partition
from repro.runtime import Cluster, ClusterConfig
from repro.runtime.node import RemoteError
from repro.runtime.shard import PeeringTransport
from repro.runtime.transport import LoopbackTransport, TransportError, make_transport
from repro.runtime.wire import (
    ENVELOPE,
    Frame,
    FrameDecoder,
    MsgType,
    ProtocolError,
    encode_frame,
)


def run(coroutine):
    return asyncio.run(coroutine)


class Collector:
    def __init__(self):
        self.frames = []
        self.event = asyncio.Event()

    async def __call__(self, frame):
        self.frames.append(frame)
        self.event.set()

    async def wait(self, count=1, timeout=5.0):
        deadline = asyncio.get_running_loop().time() + timeout
        while len(self.frames) < count:
            remaining = deadline - asyncio.get_running_loop().time()
            if remaining <= 0:
                raise AssertionError(
                    f"only {len(self.frames)}/{count} frames arrived"
                )
            self.event.clear()
            try:
                await asyncio.wait_for(self.event.wait(), remaining)
            except asyncio.TimeoutError:
                pass


def cross_domain_hosts(network):
    """(host_a, host_b, host_same): b in another transit domain than a."""
    domains = network.topology.transit_domain
    d0 = int(domains[0])
    other = next(h for h in range(len(domains)) if int(domains[h]) != d0)
    same = next(h for h in range(1, len(domains)) if int(domains[h]) == d0)
    return 0, other, same


@pytest.mark.parametrize("kind", ["loopback", "tcp"])
class TestPartitionsAndLoss:
    def test_partition_refuses_cross_domain_sends(self, kind, tiny_network):
        """An active partition drops the frame at the sender -- on both
        transports -- while same-side traffic still delivers."""
        a, b, same = cross_domain_hosts(tiny_network)
        window = Partition(
            start=0.0,
            end=math.inf,
            domains=(int(tiny_network.topology.transit_domain[a]),),
        )
        faults = FaultInjector(
            tiny_network, FaultPlan(partitions=(window,)), seed=0
        )
        faults.armed = True

        async def scenario():
            transport = make_transport(kind)
            transport.faults = faults
            await transport.start()
            inbox_far = Collector()
            inbox_near = Collector()
            await transport.bind("a", Collector(), host=a)
            await transport.bind("b", inbox_far, host=b)
            await transport.bind("c", inbox_near, host=same)
            crossed = await transport.send(
                "a", "b", Frame(MsgType.HEARTBEAT, 1, {"seq": 0, "src": "a"})
            )
            stayed = await transport.send(
                "a", "c", Frame(MsgType.HEARTBEAT, 2, {"seq": 0, "src": "a"})
            )
            await inbox_near.wait(1)
            await transport.close()
            return crossed, stayed, inbox_far.frames, inbox_near.frames

        crossed, stayed, far, near = run(scenario())
        assert crossed is False
        assert stayed is True
        assert far == []
        assert len(near) == 1

    def test_total_loss_refuses_every_send(self, kind, tiny_network):
        faults = FaultInjector(
            tiny_network, FaultPlan(message_loss_rate=1.0), seed=1
        )
        faults.armed = True

        async def scenario():
            transport = make_transport(kind)
            transport.faults = faults
            await transport.start()
            await transport.bind("a", Collector(), host=0)
            inbox = Collector()
            await transport.bind("b", inbox, host=5)
            sent = await transport.send("a", "b", Frame(MsgType.ACK, 1, {}))
            dropped = transport.dropped
            await transport.close()
            return sent, dropped, inbox.frames

        sent, dropped, frames = run(scenario())
        assert sent is False
        assert dropped == 1
        assert frames == []

    def test_crashed_host_refuses_sends(self, kind, tiny_network):
        faults = FaultInjector(tiny_network, FaultPlan(), seed=0)
        faults.armed = True
        faults.crash_host(5)

        async def scenario():
            transport = make_transport(kind)
            transport.faults = faults
            await transport.start()
            await transport.bind("a", Collector(), host=0)
            await transport.bind("b", Collector(), host=5)
            sent = await transport.send("a", "b", Frame(MsgType.ACK, 1, {}))
            await transport.close()
            return sent

        assert run(scenario()) is False


@pytest.mark.parametrize("kind", ["loopback", "tcp"])
class TestErrorPropagation:
    def test_error_frame_resolves_pending_future(self, kind):
        """A peer whose handler blows up answers with an ERROR frame,
        and the requester's future resolves with RemoteError -- no
        timeout, no hang."""

        async def scenario():
            config = ClusterConfig(
                nodes=6,
                network=NetworkParams(topo_scale=0.25, seed=3),
                overlay=OverlayParams(num_nodes=6, seed=5),
                transport=kind,
                request_timeout=30.0,
            )
            async with Cluster(config) as cluster:
                actor = cluster.actors[0]
                began = asyncio.get_running_loop().time()
                with pytest.raises(RemoteError):
                    # ROUTE without a "point" makes the peer's handler
                    # raise KeyError, answered as an ERROR frame
                    await actor.request(1, MsgType.ROUTE, {"path": [0]})
                return asyncio.get_running_loop().time() - began

        waited = run(scenario())
        assert waited < 5.0  # resolved by the ERROR frame, not the deadline


class TestStopFailsPending:
    def test_stop_fails_pending_requests_fast(self):
        """Stopping an actor fails its in-flight requests with
        TransportError (a regular Exception), not CancelledError."""

        async def scenario():
            config = ClusterConfig(
                nodes=4,
                network=NetworkParams(topo_scale=0.25, seed=3),
                overlay=OverlayParams(num_nodes=4, seed=5),
            )
            async with Cluster(config) as cluster:
                actor = cluster.actors[0]
                # a bound endpoint that never replies keeps the future pending
                await cluster.transport.bind("mute", Collector())
                request = asyncio.get_running_loop().create_task(
                    actor.request("mute", MsgType.HEARTBEAT, {"seq": 0}, timeout=30.0)
                )
                await asyncio.sleep(0.05)
                assert not request.done()
                await actor.stop()
                with pytest.raises(TransportError, match="stopped"):
                    await request
                cluster.actors.pop(0)

        run(scenario())


class TestDecoderPoisonRecovery:
    def test_fresh_decoder_recovers_after_poison(self):
        """A ProtocolError poisons the decoder for good; stream recovery
        is connection-scoped -- a fresh decoder picks the stream back up."""
        good = encode_frame(Frame(MsgType.ACK, 1, {"ok": True}))
        decoder = FrameDecoder()
        assert decoder.feed(good)[0].payload == {"ok": True}
        with pytest.raises(ProtocolError):
            decoder.feed(b"XX" + b"\x00" * 32)
        with pytest.raises(ProtocolError, match="poisoned"):
            decoder.feed(good)
        replacement = FrameDecoder()
        assert replacement.feed(good)[0].payload == {"ok": True}

    def test_tcp_garbage_poisons_only_its_connection(self):
        """Junk bytes on one TCP connection never unbind the endpoint:
        the poisoned connection drops, valid frames keep flowing."""

        async def scenario():
            transport = make_transport("tcp")
            await transport.start()
            inbox = Collector()
            await transport.bind("rx", inbox)
            await transport.bind("tx", Collector())
            # raw junk straight at rx's socket
            _, writer = await asyncio.open_connection(*transport.endpoints["rx"])
            writer.write(b"GARBAGE-NOT-A-FRAME" * 4)
            await writer.drain()
            await asyncio.sleep(0.1)
            writer.close()
            # the endpoint still serves real traffic
            sent = await transport.send(
                "tx", "rx", Frame(MsgType.HEARTBEAT, 7, {"seq": 1, "src": "tx"})
            )
            await inbox.wait(1)
            await transport.close()
            return sent, inbox.frames[0].request_id

        sent, request_id = run(scenario())
        assert sent is True
        assert request_id == 7

    @pytest.mark.parametrize("plane", ["tcp", "peering"])
    def test_good_frames_before_a_corrupt_one_are_delivered_and_counted(self, plane):
        """Two good frames and a corrupt third in one chunk: two are
        delivered, the connection drops, the endpoint stays bound, and
        ``delivered + dropped`` accounts for all three."""

        async def scenario():
            inbox = Collector()
            if plane == "tcp":
                transport = make_transport("tcp")
                await transport.start()
                await transport.bind(2, inbox)
                endpoint, prefix = transport.endpoints[2], b""
            else:
                transport = PeeringTransport(1, {2: 1}, LoopbackTransport())
                await transport.start()
                await transport.bind(2, inbox)
                endpoint, prefix = ("127.0.0.1", transport.port), ENVELOPE.pack(2)
            good = [Frame(MsgType.HEARTBEAT, i, {"seq": i}) for i in (1, 2)]
            reader, writer = await asyncio.open_connection(*endpoint)
            writer.write(
                b"".join(prefix + encode_frame(f) for f in good)
                + prefix + b"XX" + b"\x00" * 32
            )
            hung_up = await asyncio.wait_for(reader.read(), 5.0)
            writer.close()
            ledger = (transport.delivered, transport.dropped)
            # a fresh connection to the same endpoint still delivers
            _, again = await asyncio.open_connection(*endpoint)
            again.write(prefix + encode_frame(Frame(MsgType.HEARTBEAT, 3, {"seq": 3})))
            await inbox.wait(3)
            again.close()
            await transport.close()
            return hung_up, ledger, [f.request_id for f in inbox.frames]

        hung_up, ledger, arrived = run(scenario())
        assert hung_up == b""  # the server dropped the poisoned connection
        assert ledger == (2, 1)
        assert arrived == [1, 2, 3]
