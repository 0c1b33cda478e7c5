"""Transport contract: delivery, shaping, faults -- loopback and TCP."""

import asyncio

import pytest

from repro.netsim.faults import FaultInjector, FaultPlan
from repro.runtime.transport import (
    LoopbackTransport,
    TcpTransport,
    TransportError,
    make_transport,
)
from repro.runtime.wire import Frame, MsgType


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


@pytest.mark.parametrize("kind", ["loopback", "tcp"])
class TestDelivery:
    def test_bound_endpoint_receives_frames(self, kind):
        async def scenario():
            transport = make_transport(kind)
            await transport.start()
            inbox = Collector()
            await transport.bind("a", Collector())
            await transport.bind("b", inbox)
            frame = Frame(MsgType.HEARTBEAT, 3, {"seq": 1, "src": "a"})
            assert await transport.send("a", "b", frame)
            await inbox.wait(1)
            await transport.close()
            return inbox.frames[0]

        received = run(scenario())
        assert received.kind is MsgType.HEARTBEAT
        assert received.request_id == 3
        assert received.payload == {"seq": 1, "src": "a"}

    def test_unbound_destination_is_a_drop(self, kind):
        async def scenario():
            transport = make_transport(kind)
            await transport.start()
            await transport.bind("a", Collector())
            sent = await transport.send("a", "ghost", Frame(MsgType.ACK, 1, {}))
            dropped = transport.dropped
            await transport.close()
            return sent, dropped

        sent, dropped = run(scenario())
        assert sent is False
        assert dropped == 1

    def test_double_bind_refused(self, kind):
        async def scenario():
            transport = make_transport(kind)
            await transport.start()
            await transport.bind("a", Collector())
            try:
                with pytest.raises(TransportError, match="already bound"):
                    await transport.bind("a", Collector())
            finally:
                await transport.close()

        run(scenario())

    def test_frames_preserve_order_without_shaping(self, kind):
        async def scenario():
            transport = make_transport(kind)
            await transport.start()
            inbox = Collector()
            await transport.bind("rx", inbox)
            await transport.bind("tx", Collector())
            for i in range(20):
                await transport.send("tx", "rx", Frame(MsgType.ACK, i, {"i": i}))
            await inbox.wait(20)
            await transport.close()
            return [f.payload["i"] for f in inbox.frames]

        assert run(scenario()) == list(range(20))


class TestLatencyShaping:
    def test_delay_follows_the_oracle(self, tiny_network):
        """Shaped delay = one-way oracle latency x latency_scale."""
        transport = LoopbackTransport(
            oracle=tiny_network.oracle, latency_scale=0.25
        )
        transport.hosts["a"] = 0
        transport.hosts["b"] = 5
        expected = float(tiny_network.oracle.distance(0, 5)) * 0.25
        assert transport.delay_for("a", "b") == pytest.approx(expected)
        # same host or unknown host: no delay
        transport.hosts["c"] = 0
        assert transport.delay_for("a", "c") == 0.0
        assert transport.delay_for("a", "mystery") == 0.0

    def test_scale_zero_disables_shaping(self, tiny_network):
        transport = LoopbackTransport(oracle=tiny_network.oracle, latency_scale=0.0)
        transport.hosts["a"] = 0
        transport.hosts["b"] = 5
        assert transport.delay_for("a", "b") == 0.0

    def test_shaped_send_actually_waits(self, tiny_network):
        async def scenario():
            scale = 0.002  # 2 ms of wall per simulated ms
            transport = LoopbackTransport(
                oracle=tiny_network.oracle, latency_scale=scale
            )
            await transport.start()
            inbox = Collector()
            await transport.bind("rx", inbox, host=5)
            await transport.bind("tx", Collector(), host=0)
            loop = asyncio.get_running_loop()
            began = loop.time()
            await transport.send("tx", "rx", Frame(MsgType.ACK, 1, {}))
            await inbox.wait(1)
            waited = loop.time() - began
            await transport.close()
            return waited, float(tiny_network.oracle.distance(0, 5)) * scale

        waited, floor = run(scenario())
        assert waited >= floor * 0.5  # scheduling jitter allowed downward


class TestFaultInjection:
    def test_message_loss_drops_frames(self, tiny_network):
        async def scenario():
            faults = FaultInjector(
                tiny_network, FaultPlan(message_loss_rate=1.0), seed=1
            )
            faults.armed = True
            transport = LoopbackTransport()
            transport.faults = faults
            await transport.start()
            await transport.bind("a", Collector(), host=0)
            inbox = Collector()
            await transport.bind("b", inbox, host=5)
            sent = await transport.send("a", "b", Frame(MsgType.ACK, 1, {}))
            await transport.close()
            return sent, transport.dropped, inbox.frames

        sent, dropped, frames = run(scenario())
        assert sent is False
        assert dropped == 1
        assert frames == []
        assert tiny_network.stats.get("fault_message_lost") == 1

    def test_loss_is_deterministic_per_seed(self, tiny_network):
        def decisions(seed):
            faults = FaultInjector(
                tiny_network, FaultPlan(message_loss_rate=0.5), seed=seed
            )
            faults.armed = True
            transport = LoopbackTransport()
            transport.faults = faults
            transport.hosts["a"] = 0
            transport.hosts["b"] = 5
            return [transport.drops("a", "b") for _ in range(64)]

        assert decisions(7) == decisions(7)
        assert decisions(7) != decisions(8)

    def test_crashed_host_blocks_traffic(self, tiny_network):
        async def scenario():
            faults = FaultInjector(tiny_network, FaultPlan(), seed=0)
            faults.armed = True
            faults.crash_host(5)
            transport = LoopbackTransport()
            transport.faults = faults
            await transport.start()
            await transport.bind("a", Collector(), host=0)
            await transport.bind("b", Collector(), host=5)
            sent = await transport.send("a", "b", Frame(MsgType.ACK, 1, {}))
            await transport.close()
            return sent

        assert run(scenario()) is False


class TestTcpSpecifics:
    def test_endpoints_get_distinct_ports(self):
        async def scenario():
            transport = TcpTransport()
            await transport.start()
            await transport.bind("a", Collector())
            await transport.bind("b", Collector())
            ports = {port for _, port in transport.endpoints.values()}
            await transport.close()
            return ports

        assert len(run(scenario())) == 2

    def test_large_frame_crosses_the_socket(self):
        async def scenario():
            transport = TcpTransport()
            await transport.start()
            inbox = Collector()
            await transport.bind("rx", inbox)
            await transport.bind("tx", Collector())
            payload = {"blob": "y" * 200_000}
            await transport.send("tx", "rx", Frame(MsgType.PUBLISH, 9, payload))
            await inbox.wait(1, timeout=10.0)
            await transport.close()
            return inbox.frames[0].payload

        assert run(scenario())["blob"] == "y" * 200_000

    def test_unknown_transport_kind(self):
        with pytest.raises(ValueError, match="unknown transport"):
            make_transport("carrier-pigeon")

    def test_rebind_then_send_reaches_the_new_server(self):
        """A restarted endpoint must receive traffic on its new socket.

        The sender caches one connection per destination; rebinding an
        address starts a fresh server on a fresh port, so a cached
        writer aimed at the old port would send frames into the void.
        The bind must invalidate the stale writer.
        """

        async def scenario():
            transport = TcpTransport()
            await transport.start()
            await transport.bind("tx", Collector())
            first = Collector()
            await transport.bind("rx", first)
            assert await transport.send(
                "tx", "rx", Frame(MsgType.HEARTBEAT, 1, {"seq": 1})
            )
            await first.wait(1)
            # restart: same address, new server (and new port)
            await transport.unbind("rx")
            second = Collector()
            await transport.bind("rx", second)
            assert await transport.send(
                "tx", "rx", Frame(MsgType.HEARTBEAT, 2, {"seq": 2})
            )
            await second.wait(1)
            await transport.close()
            return first.frames, second.frames

        first, second = run(scenario())
        assert [f.payload["seq"] for f in first] == [1]
        assert [f.payload["seq"] for f in second] == [2]

    def test_rebind_closes_the_replaced_writer(self):
        """Writers displaced from the cache are closed, not leaked."""

        async def scenario():
            transport = TcpTransport()
            await transport.start()
            await transport.bind("tx", Collector())
            inbox = Collector()
            await transport.bind("rx", inbox)
            await transport.send(
                "tx", "rx", Frame(MsgType.HEARTBEAT, 1, {"seq": 1})
            )
            await inbox.wait(1)
            writer = transport._writers.get("rx")
            assert writer is not None
            await transport.unbind("rx")
            closing = writer.is_closing()
            stale = "rx" in transport._writers
            await transport.close()
            return closing, stale

        closing, stale = run(scenario())
        assert closing, "displaced writer must be closed"
        assert not stale, "unbind must drop the cached writer"


class TestOutboxBackpressure:
    def test_outbox_cap_refuses_overflow_frames(self):
        """A full per-peer write queue drops (and counts) new frames.

        The flusher task spawned by the first send has not run yet, so
        every later send in the same event-loop turn lands in the same
        batch -- deterministic overflow without a slow peer.
        """

        async def scenario():
            transport = TcpTransport()
            transport.OUTBOX_CAP = 4
            await transport.start()
            inbox = Collector()
            await transport.bind("rx", inbox)
            await transport.bind("tx", Collector())
            results = [
                await transport.send(
                    "tx", "rx", Frame(MsgType.HEARTBEAT, seq + 1, {"seq": seq})
                )
                for seq in range(6)
            ]
            await inbox.wait(4)
            await transport.close()
            return results, transport.backpressure_drops, len(inbox.frames)

        results, backpressure, delivered = run(scenario())
        # send 0 seeds the batch and spawns the flusher; 1-3 fill the
        # cap; 4 and 5 are refused
        assert results == [True, True, True, True, False, False]
        assert backpressure == 2
        assert delivered == 4

    def test_an_outbox_under_the_cap_accepts_everything(self):
        async def scenario():
            transport = TcpTransport()
            await transport.start()
            inbox = Collector()
            await transport.bind("rx", inbox)
            await transport.bind("tx", Collector())
            for seq in range(64):
                assert await transport.send(
                    "tx", "rx", Frame(MsgType.HEARTBEAT, seq + 1, {"seq": seq})
                )
            await inbox.wait(64)
            await transport.close()
            return transport.backpressure_drops, len(inbox.frames)

        backpressure, delivered = run(scenario())
        assert backpressure == 0
        assert delivered == 64
