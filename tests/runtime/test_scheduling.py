"""What a frame costs the event loop, pinned by counts instead of clocks.

One pump task per process serves every kicked actor, one ``call_soon``
callback per loop tick writes every stream outbox, and a handler that
has to wait spawns instead of suspending the drain.  Tasks are counted
through ``loop.set_task_factory``; orderings are read off recorded
events, never off wall time.
"""

import asyncio
import socket
import sys

import pytest

from repro.core.config import NetworkParams, OverlayParams
from repro.runtime import Cluster, ClusterConfig
from repro.runtime.node import NodeProcess
from repro.runtime.shard import PeeringTransport
from repro.runtime.transport import (
    LoopbackTransport,
    TcpTransport,
    TransportError,
    make_transport,
)
from repro.runtime.wire import ENVELOPE, Frame, MsgType, encode_frame

NODES = 12
YIELD_EVERY = NodeProcess.YIELD_EVERY


def run(coroutine):
    return asyncio.run(coroutine)


def make_config(**overrides):
    return ClusterConfig(
        nodes=NODES,
        network=NetworkParams(topo_scale=0.25, seed=3),
        overlay=OverlayParams(num_nodes=NODES, seed=5),
        **overrides,
    )


def count_tasks() -> list:
    """Every task the running loop creates from here on."""
    created = []

    def factory(loop, coro, **kwargs):
        task = asyncio.Task(coro, loop=loop, **kwargs)
        created.append(task)
        return task

    asyncio.get_running_loop().set_task_factory(factory)
    return created


async def until(predicate, turns=20000):
    """Yield to the loop until ``predicate()``; creates no task."""
    for _ in range(turns):
        if predicate():
            return
        await asyncio.sleep(0.0005)
    raise AssertionError("condition never held")


def own_route(cluster, node_id, request_id=1, src=None, to=None) -> Frame:
    """A ROUTE frame ``node_id`` delivers itself (its own zone centre),
    or forwards towards ``to``'s."""
    target = node_id if to is None else to
    point = [float(x) for x in cluster.routing.zone_center(target)]
    return Frame(
        MsgType.ROUTE, request_id,
        {"point": point, "path": [node_id], "op": "route", "src": src},
    )  # fmt: skip


async def served_per_turn(actors) -> list:
    """ROUTE dispatches per loop turn, summed over ``actors``, until
    their lanes are empty."""
    served = [0]
    while any(a.mailbox_depth for a in actors):
        await asyncio.sleep(0)
        served.append(sum(a.handled.get("ROUTE", 0) for a in actors))
    return [b - a for a, b in zip(served, served[1:])]


class Probe:
    """A raw endpoint: records replies and what held when each arrived."""

    def __init__(self, snapshot=lambda: None):
        self.frames, self.seen, self.snapshot = [], [], snapshot

    async def __call__(self, frame):
        self.frames.append(frame)
        self.seen.append(self.snapshot())


class TestPump:
    def test_k_idle_actors_kicked_in_one_turn_cost_one_task(self):
        async def scenario():
            async with Cluster(make_config()) as cluster:
                tasks = count_tasks()
                for node_id in cluster.node_ids:
                    # loopback delivers inline: every on_frame runs in this turn
                    assert await cluster.transport.send(
                        cluster.bootstrap.addr, node_id, own_route(cluster, node_id)
                    )
                kicked = len(tasks)
                await tasks[0]
                handled = [a.handled.get("ROUTE") for a in cluster.actors.values()]
                return kicked, len(tasks), handled

        kicked, total, handled = run(scenario())
        assert kicked == total == 1
        assert handled == [1] * NODES

    def test_a_flood_on_one_actor_does_not_starve_the_next(self):
        async def scenario():
            async with Cluster(make_config()) as cluster:
                flooded, other = list(cluster.actors.values())[1:3]
                order = []
                dispatch = flooded._dispatch

                async def recording(frame):
                    order.append(frame.kind.name)
                    await dispatch(frame)

                flooded._dispatch = recording
                probe = Probe(lambda: len(order))
                await cluster.transport.bind("probe", probe)
                tasks = count_tasks()
                flood = 10 * YIELD_EVERY
                for i in range(flood):
                    await flooded.on_frame(own_route(cluster, flooded.addr, i))
                beat = Frame(MsgType.HEARTBEAT, 1, {"seq": 1, "src": "probe"})
                await other.on_frame(beat)
                # the other actor answers while the flood is still queued ...
                await until(lambda: probe.frames)
                served_at_reply = probe.seen[0]
                # ... and a control frame that lands mid-flood jumps the lane
                queued_at = len(order)
                assert flooded.data_lane
                await flooded.on_frame(beat)
                await until(lambda: len(order) == flood + 1)
                return served_at_reply, queued_at, order, len(tasks)

        served_at_reply, queued_at, order, tasks = run(scenario())
        assert 0 < served_at_reply <= YIELD_EVERY
        assert order.index("HEARTBEAT") == queued_at
        assert order.count("ROUTE") == 10 * YIELD_EVERY
        assert tasks == 1  # the whole flood, both actors: one pump

    def test_the_pump_yields_every_quantum_across_actors(self):
        async def scenario():
            async with Cluster(make_config()) as cluster:
                actors = list(cluster.actors.values())[:4]
                for actor in actors:
                    for i in range(YIELD_EVERY // 2 + 1):
                        await actor.on_frame(own_route(cluster, actor.addr, i))
                return await served_per_turn(actors)

        steps = run(scenario())
        assert max(steps) == YIELD_EVERY
        assert sum(steps) == 4 * (YIELD_EVERY // 2 + 1)

    def test_a_chain_stays_on_the_running_pump(self):
        async def scenario():
            async with Cluster(make_config()) as cluster:
                ids = cluster.node_ids
                tasks = count_tasks()
                hops = []
                for src in ids[:4]:
                    before = len(tasks)
                    result = await cluster.route(src, ids[-1])
                    hops.append((result["hops"], len(tasks) - before))
                return hops

        hops = run(scenario())
        assert max(h for h, _ in hops) >= 2, "need a multi-hop route"
        assert [spawned for _, spawned in hops] == [1] * len(hops)

    def test_stack_depth_inside_dispatch_is_the_same_at_every_hop(self):
        def stack_depth() -> int:
            depth, frame = 0, sys._getframe()
            while frame is not None:
                depth, frame = depth + 1, frame.f_back
            return depth

        async def scenario():
            async with Cluster(make_config()) as cluster:
                depths = []

                def recording(dispatch):
                    async def wrapped(frame):
                        depths.append(stack_depth())
                        await dispatch(frame)

                    return wrapped

                for actor in cluster.actors.values():
                    actor._dispatch = recording(actor._dispatch)
                ids = cluster.node_ids
                routes = []
                for src in ids[:4]:
                    depths.clear()
                    result = await cluster.route(src, ids[-1])
                    routes.append((result["hops"], list(depths)))
                return routes

        hops, depths = max(run(scenario()))
        assert hops >= 3
        assert len(depths) == hops + 1  # the origin's own decision, then each hop
        assert len(set(depths)) == 1

    def test_the_quantum_counts_hops(self):
        async def scenario():
            async with Cluster(make_config()) as cluster:
                ids = cluster.node_ids
                actors = list(cluster.actors.values())
                routes = 4 * YIELD_EVERY
                for i in range(routes):
                    src = ids[i % 4]
                    await cluster.actors[src].on_frame(
                        own_route(cluster, src, i, to=ids[-1])
                    )
                return routes, await served_per_turn(actors)

        routes, steps = run(scenario())
        assert sum(steps) >= 2 * routes, "need multi-hop routes"
        assert max(steps) == YIELD_EVERY  # dispatches, whichever actors ran them

    def test_an_actor_stopped_while_queued_is_skipped_and_counted(self):
        async def scenario():
            async with Cluster(make_config()) as cluster:
                victim, bystander = list(cluster.actors.values())[1:3]
                tasks = count_tasks()
                for i in range(3):
                    await victim.on_frame(own_route(cluster, victim.addr, i))
                await bystander.on_frame(own_route(cluster, bystander.addr))
                assert list(cluster.pump.ready) == [victim, bystander]
                await cluster.crash(victim.addr)
                await tasks[0]
                counters = cluster.overload_counters()
                return victim.handled, bystander.handled, counters, len(tasks)

        victim, bystander, counters, tasks = run(scenario())
        assert victim == {}
        assert bystander == {"ROUTE": 1}
        assert counters["crash_dropped"] == 3
        assert tasks == 1


class TestRelayedProbe:
    """A SWIM witness keeps serving its mailbox while it relays."""

    @staticmethod
    async def _relay_through(cluster, witness):
        """A ping-req from the bootstrap through ``witness`` at a bound
        endpoint that never answers; returns the prober's request task
        once the witness has taken the frame."""

        async def black_hole(frame):
            pass

        await cluster.transport.bind("void", black_hole)
        probe = asyncio.ensure_future(
            cluster.bootstrap.request(
                witness.addr, MsgType.HEARTBEAT,
                {"seq": 7, "relay": "void", "timeout": 0.2},
                timeout=5.0, retry=False,
            )
        )  # fmt: skip
        await until(lambda: witness.handled.get("HEARTBEAT"))
        return probe

    def test_a_lookup_from_the_witness_overtakes_the_relayed_probe(self):
        async def scenario():
            async with Cluster(make_config()) as cluster:
                witness = list(cluster.actors.values())[3]
                events = []
                probe = await self._relay_through(cluster, witness)
                probe.add_done_callback(lambda _: events.append("relay reply"))
                await cluster.lookup(witness.addr, (0.3, 0.7))
                events.append("lookup")
                ack = await probe
                await asyncio.sleep(0)
                return events, ack, len(witness._relays)

        events, ack, outstanding = run(scenario())
        assert events == ["lookup", "relay reply"]
        assert ack["ok"] is False and ack["relay"] == "void"
        assert outstanding == 0

    def test_stop_cancels_outstanding_relays(self):
        async def scenario():
            cluster = await Cluster(make_config()).start()
            witness = list(cluster.actors.values())[3]
            probe = await self._relay_through(cluster, witness)
            relays = list(witness._relays)
            await cluster.stop()
            with pytest.raises(TransportError):
                await probe  # the prober stopped too; nobody told it "silent"
            return [task.done() for task in relays], len(witness._relays)

        done, outstanding = run(scenario())
        assert done == [True]
        assert outstanding == 0


class Inbox:
    """A TCP endpoint whose reader can be made to stop reading."""

    def __init__(self):
        self.ids = []
        self.reading = asyncio.Event()
        self.reading.set()

    async def __call__(self, frame):
        await self.reading.wait()
        self.ids.append(frame.request_id)


class Sink:
    """A TCP endpoint that never waits: a plain callable, owed nothing."""

    def __init__(self):
        self.ids = []

    def __call__(self, frame):
        self.ids.append(frame.request_id)


def beat(request_id, blob="") -> Frame:
    return Frame(MsgType.HEARTBEAT, request_id, {"seq": request_id, "blob": blob})


def spy(transport) -> dict:
    """Count ``_tick`` runs (with the keys each wrote) and ``_flush`` calls."""
    calls = {"tick": [], "flush": []}
    tick, flush = transport._tick, transport._flush

    def counted_tick():
        calls["tick"].append(list(transport._due))
        tick()

    def counted_flush(key):
        calls["flush"].append(key)
        return flush(key)

    transport._tick, transport._flush = counted_tick, counted_flush
    return calls


class TestOutboxTick:
    def test_k_warm_destinations_in_one_turn_cost_one_callback_and_no_task(self):
        async def scenario():
            transport = TcpTransport()
            await transport.start()
            # plain callables: an ``async`` receiver is owed its coroutine
            # and would cost the read side one ``_serve`` task each
            inboxes = {f"rx{i}": Sink() for i in range(8)}
            for addr, inbox in inboxes.items():
                await transport.bind(addr, inbox)
                assert await transport.send("tx", addr, beat(0))
            await until(lambda: all(inbox.ids for inbox in inboxes.values()))
            calls = spy(transport)
            tasks = count_tasks()
            for addr in inboxes:
                for request_id in (1, 2):
                    assert await transport.send("tx", addr, beat(request_id))
            await until(lambda: all(len(i.ids) == 3 for i in inboxes.values()))
            counters, spawned = transport.counters(), len(tasks)
            listener = transport.endpoints["rx0"]
            await transport.close()
            return calls, spawned, [i.ids for i in inboxes.values()], counters, listener

        calls, tasks, arrived, counters, listener = run(scenario())
        # every destination shares the one listener: one key, one batch
        assert calls == {"tick": [[listener]], "flush": []}
        assert tasks == 0
        assert arrived == [[0, 1, 2]] * 8
        assert counters["sent"] == counters["delivered"] == 24

    def test_first_contact_connects_at_enqueue_time(self):
        async def scenario():
            transport = TcpTransport()
            await transport.start()
            inbox = Inbox()
            await transport.bind("rx", inbox)
            calls = spy(transport)
            assert await transport.send("tx", "rx", beat(0))
            at_enqueue = {k: list(v) for k, v in calls.items()}
            await until(lambda: inbox.ids)
            listener = transport.endpoints["rx"]
            await transport.close()
            return at_enqueue, calls, listener

        at_enqueue, calls, listener = run(scenario())
        assert at_enqueue == {"tick": [], "flush": [listener]}
        assert calls == at_enqueue  # and no tick was ever scheduled for it

    def test_a_shaped_frame_joins_the_outbox_when_its_delay_is_up(self, tiny_network):
        async def scenario():
            transport = TcpTransport(oracle=tiny_network.oracle, latency_scale=0.0005)
            await transport.start()
            inbox = Inbox()
            await transport.bind("rx", inbox, host=5)
            await transport.bind("tx", Inbox(), host=0)
            calls = spy(transport)
            for request_id in range(5):
                assert await transport.send("tx", "rx", beat(request_id))
            queued_at_send = dict(transport._outbox)
            await until(lambda: len(inbox.ids) == 5)
            counters, listener = transport.counters(), transport.endpoints["rx"]
            await transport.close()
            return queued_at_send, inbox.ids, calls["flush"], counters, listener

        queued_at_send, ids, flushes, counters, listener = run(scenario())
        assert queued_at_send == {}  # on the (simulated) wire, not in the outbox
        assert ids == [0, 1, 2, 3, 4]
        assert flushes == [listener]  # one connect; the rest coalesce or ride the tick
        assert counters["sent"] == counters["delivered"] == 5

    def test_fifo_across_tick_slow_path_and_tick_again(self):
        async def scenario():
            transport = TcpTransport()
            await transport.start()
            inbox = Inbox()
            await transport.bind("rx", inbox)
            assert await transport.send("tx", "rx", beat(0))
            await until(lambda: inbox.ids)
            # a small kernel send buffer: the stream's own buffer (and
            # so its high-water mark) is reached after a few frames
            listener = transport.endpoints["rx"]
            writer = transport._writers[listener]
            writer.get_extra_info("socket").setsockopt(
                socket.SOL_SOCKET, socket.SO_SNDBUF, 4096
            )
            calls = spy(transport)
            inbox.reading.clear()  # the peer stops reading
            sent = 1
            blob = "x" * 32768
            while not calls["flush"]:
                assert sent < 400, "the write buffer never filled"
                assert await transport.send("tx", "rx", beat(sent, blob))
                sent += 1
                await asyncio.sleep(0)
            ticks_before = len(calls["tick"])
            over = writer.transport.get_write_buffer_size()
            high = writer.transport.get_write_buffer_limits()[1]
            # the slow path owns the key now: these queue behind its drain()
            for _ in range(3):
                assert await transport.send("tx", "rx", beat(sent, blob))
                sent += 1
                await asyncio.sleep(0)
            owned = listener in transport._outbox and len(calls["tick"]) == ticks_before
            inbox.reading.set()
            await until(lambda: listener not in transport._outbox)
            # released: back on the tick path, same connection
            flushes = len(calls["flush"])
            for _ in range(3):
                assert await transport.send("tx", "rx", beat(sent))
                sent += 1
                await asyncio.sleep(0)
            await until(lambda: len(inbox.ids) == sent)
            back_on_tick = (
                len(calls["flush"]) == flushes and len(calls["tick"]) > ticks_before
            )
            counters = transport.counters()
            await transport.close()
            return (
                inbox.ids, sent, ticks_before, over > high, owned, back_on_tick,
                calls["flush"] == [listener], counters,
            )  # fmt: skip

        ids, sent, ticks, over, owned, back_on_tick, one_flush, counters = run(scenario())
        assert ids == list(range(sent))
        assert ticks > 0 and over and owned and back_on_tick
        assert one_flush
        assert counters["sent"] == counters["delivered"] == sent
        assert counters["dropped"] == counters["backpressure_drops"] == 0


class Door:
    """A TCP endpoint that waits only for the frames marked ``hold``."""

    def __init__(self):
        self.ids = []
        self.open = asyncio.Event()

    def __call__(self, frame):
        if frame.payload["blob"] == "hold":
            return self._held(frame)
        self.ids.append(frame.request_id)

    async def _held(self, frame):
        await self.open.wait()
        self.ids.append(frame.request_id)


def serve_tasks(tasks) -> int:
    return sum(t.get_coro().__qualname__.endswith("._serve") for t in tasks)


class TestProtocolReader:
    """The read side: delivered before ``data_received`` returns, and a
    ``_serve`` task only while a handler waits."""

    def test_a_chunk_is_delivered_before_data_received_returns(self):
        async def scenario():
            async with Cluster(make_config(transport="tcp")) as cluster:
                flooded, target = list(cluster.actors.values())[1:3]
                before = set(cluster.transport._readers)
                _, writer = await asyncio.open_connection(
                    *cluster.transport.endpoints[target.addr]
                )
                await until(lambda: set(cluster.transport._readers) - before)
                (connection,) = set(cluster.transport._readers) - before
                reply = asyncio.get_running_loop().create_future()
                target.pending[77] = reply
                # a running pump: the flood keeps its one task alive
                for i in range(10 * YIELD_EVERY):
                    await flooded.on_frame(own_route(cluster, flooded.addr, i))
                tasks = count_tasks()
                burst = [own_route(cluster, target.addr, i) for i in range(5)]
                ack = Frame(MsgType.ACK, 77, {"owner": 1, "path": [1], "hops": 0})
                connection.data_received(
                    b"".join(
                        ENVELOPE.pack(target.addr) + encode_frame(f, packed=True)
                        for f in burst + [ack]
                    )
                )
                # no await since the call: this is what it left behind
                seen = (
                    [f.request_id for f in target.data_lane],
                    reply.done() and reply.result(),
                    target in cluster.pump.ready,
                )
                await until(lambda: target.handled.get("ROUTE") == 5)
                writer.close()
                return seen, len(tasks), cluster.transport.delivered

        (lane, reply, kicked), tasks, delivered = run(scenario())
        assert lane == [0, 1, 2, 3, 4]
        assert reply == {"owner": 1, "path": [1], "hops": 0}
        assert kicked and tasks == 0
        assert delivered >= 6

    def test_a_handler_that_waits_pauses_only_its_own_connection(self):
        async def scenario():
            transport, other = TcpTransport(), TcpTransport()
            await transport.start()
            door = Door()
            await transport.bind(1, door)  # a member: its envelope id is 1
            other.endpoints.update(transport.endpoints)  # a second connection
            for sender, request_id in ((transport, 0), (other, 10)):
                assert await sender.send("tx", 1, beat(request_id))
            await until(lambda: len(door.ids) == 2)
            tasks = count_tasks()
            for request_id, blob in ((1, "hold"), (2, ""), (3, "")):
                assert await transport.send("tx", 1, beat(request_id, blob))
            await until(lambda: serve_tasks(tasks))
            for request_id in (11, 12):
                assert await other.send("tx", 1, beat(request_id))
            await until(lambda: len(door.ids) == 4)
            while_held = list(door.ids)
            reading = sorted(c.stream.is_reading() for c in transport._readers)
            door.open.set()
            await until(lambda: len(door.ids) == 7)
            assert await transport.send("tx", 1, beat(4))  # reading again
            await until(lambda: len(door.ids) == 8)
            resumed = all(c.stream.is_reading() for c in transport._readers)
            counters, tasks = transport.counters(), list(tasks)
            await other.close()
            await transport.close()
            return while_held, reading, resumed, door.ids, tasks, counters

        while_held, reading, resumed, ids, tasks, counters = run(scenario())
        assert while_held == [0, 10, 11, 12]
        assert reading == [False, True] and resumed
        assert ids == [0, 10, 11, 12, 1, 2, 3, 4]
        assert len(tasks) == serve_tasks(tasks) == 1
        assert counters["delivered"] == 8 and counters["dropped"] == 0


class TestCloseAccounting:
    """``sent == delivered + dropped`` on a closed stream transport."""

    @staticmethod
    async def _tcp(warm: bool):
        transport = TcpTransport()
        await transport.start()
        inbox = Inbox()
        await transport.bind("rx", inbox)
        if warm:
            assert await transport.send("tx", "rx", beat(0))
            await until(lambda: inbox.ids)
        return transport, inbox

    def test_frames_still_queued_for_the_tick_count_as_dropped(self):
        async def scenario():
            transport, inbox = await self._tcp(warm=True)
            calls = spy(transport)
            for request_id in (1, 2, 3):
                assert await transport.send("tx", "rx", beat(request_id))
            listener = transport.endpoints["rx"]
            await transport.close()
            await asyncio.sleep(0.01)  # the scheduled tick runs, and writes nothing
            return transport.counters(), calls, inbox.ids, transport._due, listener

        counters, calls, arrived, due, listener = run(scenario())
        assert (counters["sent"], counters["delivered"], counters["dropped"]) == (4, 1, 3)
        assert calls["tick"] == [[listener]] and calls["flush"] == [] and due == []
        assert arrived == [0]

    @pytest.mark.parametrize("turns", [0, 1], ids=["unstarted", "mid-connect"])
    def test_a_cancelled_flusher_loses_nothing_uncounted(self, turns):
        async def scenario():
            transport, inbox = await self._tcp(warm=False)
            for request_id in (1, 2, 3):
                assert await transport.send("tx", "rx", beat(request_id))
            for _ in range(turns):
                await asyncio.sleep(0)  # the flusher gets as far as its connect
            await transport.close()
            return transport.counters(), inbox.ids

        counters, arrived = run(scenario())
        assert (counters["sent"], counters["delivered"], counters["dropped"]) == (3, 0, 3)
        assert arrived == []

    def test_a_paused_connection_s_backlog_counts_as_dropped(self):
        async def scenario():
            transport, inbox = await self._tcp(warm=True)
            inbox.reading.clear()
            for request_id in (1, 2, 3):  # one tick, one chunk: 1 waits, 2 and 3 queue
                assert await transport.send("tx", "rx", beat(request_id))
            await until(lambda: transport.delivered == 2)
            (connection,) = transport._readers
            backlog = len(connection.backlog)
            await transport.close()
            return transport.counters(), backlog, inbox.ids

        counters, backlog, arrived = run(scenario())
        assert backlog == 2
        assert (counters["sent"], counters["delivered"], counters["dropped"]) == (4, 2, 2)
        assert arrived == [0]

    @pytest.mark.parametrize("kind", ["loopback", "tcp"])
    def test_shaped_frames_still_on_the_wire_count_as_dropped(self, kind):
        class OneMs:
            def distance(self, u, v):
                return 1.0

        async def scenario():
            transport = make_transport(kind, oracle=OneMs(), latency_scale=0.01)
            await transport.start()
            inbox = Inbox()
            await transport.bind("rx", inbox, host=1)
            transport.hosts["tx"] = 0
            for request_id in (1, 2, 3):  # each waits 10 ms before it departs
                assert await transport.send("tx", "rx", beat(request_id))
            await transport.close()
            return transport.counters(), inbox.ids

        counters, arrived = run(scenario())
        assert (counters["sent"], counters["delivered"], counters["dropped"]) == (3, 0, 3)
        assert arrived == []

    def test_a_paused_peering_connection_counts_the_same_way(self):
        async def scenario():
            near, far, inbox = await self._peered()
            inbox.reading.clear()
            for request_id in (1, 2, 3):
                assert await near.send(1, 2, beat(request_id))
            await until(lambda: far.delivered == 2)
            await far.close()
            await near.close()
            return near, far, inbox.ids

        near, far, arrived = run(scenario())
        assert (near.sent, near.dropped, far.delivered, far.dropped) == (4, 0, 2, 2)
        assert near.sent == far.delivered + far.dropped + near.dropped
        assert arrived == [0]

    @staticmethod
    async def _peered():
        """Two in-process shards, member 2 on the far one, link warm."""
        shard_of = {1: 0, 2: 1}
        near = PeeringTransport(0, shard_of, LoopbackTransport())
        far = PeeringTransport(1, shard_of, LoopbackTransport())
        await near.start()
        await far.start()
        near.endpoints[1] = far.endpoints[1] = ("127.0.0.1", far.port)
        inbox = Inbox()
        await far.bind(2, inbox)
        assert await near.send(1, 2, beat(0))
        await until(lambda: inbox.ids)
        return near, far, inbox

    def test_the_peering_plane_counts_the_same_way(self):
        async def scenario():
            shard_of = {1: 0, 2: 1}
            near = PeeringTransport(0, shard_of, LoopbackTransport())
            far = PeeringTransport(1, shard_of, LoopbackTransport())
            await near.start()
            await far.start()
            near.endpoints[1] = far.endpoints[1] = ("127.0.0.1", far.port)
            inbox = Inbox()
            await far.bind(2, inbox)
            assert await near.send(1, 2, beat(0))
            await until(lambda: inbox.ids)
            for request_id in (1, 2, 3):  # warm link: these wait for the tick
                assert await near.send(1, 2, beat(request_id))
            await near.close()
            await asyncio.sleep(0.01)
            await far.close()
            with pytest.raises(TransportError, match="closed"):
                await near.send(1, 2, beat(4))
            return near, far, inbox.ids

        near, far, arrived = run(scenario())
        assert (near.sent, near.dropped, far.delivered) == (4, 3, 1)
        assert near.sent == far.delivered + near.dropped
        assert arrived == [0]
