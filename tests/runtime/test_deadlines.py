"""Request deadlines, live: the shared table on a real event loop.

The table itself is covered without a loop in
``tests/core/test_reliability.py``; these tests hold the request
lifecycle around it (register -> await -> sweep) to its contract:
timeouts land inside one tick, every way out of the wait releases the
``pending`` entry, and no failed future is left for the garbage
collector to complain about.
"""

import asyncio
import gc

import pytest

from repro.core.config import NetworkParams, OverlayParams
from repro.core.reliability import DEADLINE_TICK_S, DeadlineTable
from repro.runtime import Cluster, ClusterConfig, run_load
from repro.runtime.node import RequestTimeout
from repro.runtime.wire import MsgType


def run(coroutine):
    return asyncio.run(coroutine)


def shaped_config(**overrides):
    """8 nodes whose frames spend wall time in flight (a one-way hop
    between two hosts takes tens of milliseconds), so a peer can crash
    or a caller be cancelled while a request is on the wire."""
    return ClusterConfig(
        nodes=8,
        network=NetworkParams(topo_scale=0.25, seed=3),
        overlay=OverlayParams(num_nodes=8, seed=5),
        latency_scale=0.002,
        **overrides,
    )


def far_pair(cluster):
    """``(asker, target)`` on different hosts, the slowest pair."""
    ids = sorted(cluster.node_ids)
    asker = ids[0]
    target = max(ids[1:], key=lambda n: cluster.transport.delay_for(asker, n))
    assert cluster.transport.delay_for(asker, target) > 2 * DEADLINE_TICK_S
    return asker, target


class LoopNoise:
    """Collects whatever the loop's exception handler is told."""

    def __init__(self):
        self.contexts = []
        asyncio.get_running_loop().set_exception_handler(
            lambda loop, context: self.contexts.append(context)
        )

    async def settle(self) -> list:
        """Let callbacks run and unreferenced futures be collected."""
        for _ in range(3):
            await asyncio.sleep(0)
            gc.collect()
        return [context.get("message") for context in self.contexts]


class TestTimeoutWindow:
    def test_crashed_peer_times_out_within_one_tick(self):
        async def scenario():
            async with Cluster(shaped_config(request_timeout=0.2)) as cluster:
                asker, target = far_pair(cluster)
                actor = cluster._actor(asker)
                loop = asyncio.get_running_loop()
                began = loop.time()
                request = asyncio.ensure_future(
                    actor.request(
                        target,
                        MsgType.ROUTE,
                        {"point": [0.5, 0.5], "path": [target], "op": "route"},
                    )
                )
                await asyncio.sleep(0)  # the frame is in flight
                await cluster.crash(target)
                with pytest.raises(RequestTimeout, match="unanswered after 0.2s"):
                    await request
                elapsed = loop.time() - began
                waiting = len(actor.pending), len(cluster.deadlines)
                return elapsed, waiting

        elapsed, waiting = run(scenario())
        assert 0.2 <= elapsed <= 0.2 + 0.05
        assert waiting == (0, 0)

    def test_one_timer_serves_every_pending_request(self):
        async def scenario():
            async with Cluster(shaped_config()) as cluster:
                asker, target = far_pair(cluster)
                loop = asyncio.get_running_loop()
                armed = []

                def call_later(delay, sweep):
                    def tick():
                        armed.remove(handle)
                        sweep()

                    handle = loop.call_later(delay, tick)
                    armed.append(handle)
                    return handle

                cluster.deadlines = DeadlineTable(loop.time, call_later)
                pings = [
                    asyncio.ensure_future(cluster.ping(asker, target, seq=k))
                    for k in range(50)
                ]
                await asyncio.sleep(0)
                waiting = len(cluster.deadlines), len(armed)
                await asyncio.gather(*pings)
                drained = len(cluster.deadlines)
                # the sweep that finds the table empty does not re-arm
                await asyncio.sleep(2 * DEADLINE_TICK_S)
                return waiting, drained, len(armed)

        assert run(scenario()) == ((50, 1), 0, 0)


class TestWholeRouteDeadline:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_a_shaped_burst_answers_every_lookup(self, seed):
        """A lookup is a whole route its origin sends to itself, zero
        hops or several: one deadline has to cover the longest, so a
        burst of shaped lookups, short and long routes mixed, times
        none of them out."""

        async def scenario():
            config = ClusterConfig(
                nodes=16,
                network=NetworkParams(topo_scale=0.25, seed=seed),
                overlay=OverlayParams(num_nodes=16, seed=seed),
                latency_scale=0.001,
                bulk_boot=True,
            )
            async with Cluster(config) as cluster:
                return await run_load(cluster, rate=2000, count=100, seed=seed)

        report = run(scenario())
        assert report.ops == 100
        assert report.errors == 0


class TestRelease:
    def test_cancelled_request_releases_its_pending_entry(self):
        async def scenario():
            async with Cluster(shaped_config()) as cluster:
                noise = LoopNoise()
                asker, target = far_pair(cluster)
                actor = cluster._actor(asker)
                request = asyncio.ensure_future(cluster.ping(asker, target))
                await asyncio.sleep(0)
                assert len(actor.pending) == 1 and len(cluster.deadlines) == 1
                await cluster.crash(target)  # the reply will never come
                request.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await request
                return len(actor.pending), len(cluster.deadlines), await noise.settle()

        assert run(scenario()) == (0, 0, [])

    def test_late_ack_for_a_released_request_drops_silently(self):
        async def scenario():
            async with Cluster(shaped_config()) as cluster:
                noise = LoopNoise()
                asker, target = far_pair(cluster)
                actor = cluster._actor(asker)
                delivered = cluster.transport.delivered
                with pytest.raises(RequestTimeout):
                    await actor.request(
                        target, MsgType.HEARTBEAT, {"seq": 7}, timeout=0.001
                    )
                assert len(actor.pending) == 0
                # the probe and its ACK are still crossing the shaped wire
                while cluster.transport.delivered < delivered + 2:
                    await asyncio.sleep(0.01)
                # and the actor still answers afterwards
                ack = await cluster.ping(asker, target, seq=8)
                return ack["seq"], len(actor.pending), await noise.settle()

        assert run(scenario()) == (8, 0, [])


class TestNoUnretrievedFailures:
    def test_cancelled_in_the_tick_its_deadline_fires(self):
        async def scenario():
            async with Cluster(shaped_config()) as cluster:
                noise = LoopNoise()
                loop = asyncio.get_running_loop()
                callers = []

                def sweep_then_cancel(delay, sweep):
                    def tick():
                        sweep()  # fails the overdue future ...
                        for caller in callers:  # ... and nobody reads it
                            caller.cancel()

                    return loop.call_later(delay, tick)

                cluster.deadlines = DeadlineTable(loop.time, sweep_then_cancel)
                asker, target = far_pair(cluster)
                callers.append(
                    asyncio.ensure_future(
                        cluster._actor(asker).request(
                            target, MsgType.HEARTBEAT, {"seq": 1}, timeout=0.001
                        )
                    )
                )
                with pytest.raises(asyncio.CancelledError):
                    await callers[0]
                del callers[:]
                return await noise.settle()

        assert run(scenario()) == []

    def test_cancelled_in_the_tick_a_crash_fails_it(self):
        async def scenario():
            async with Cluster(shaped_config()) as cluster:
                noise = LoopNoise()
                asker, target = far_pair(cluster)
                request = asyncio.ensure_future(cluster.ping(asker, target))
                await asyncio.sleep(0)
                # loopback unbind never yields: stop() fails the future
                # and the cancel lands before its awaiter wakes up
                await cluster.actors[asker].stop()
                request.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await request
                del request
                return await noise.settle()

        assert run(scenario()) == []

    def test_cancelled_inside_send_then_crashed(self):
        """A caller cancelled before its frame left (a TCP connect in
        progress, say) must not leave a future for ``stop()`` to fail
        with nobody listening."""

        async def scenario():
            async with Cluster(shaped_config()) as cluster:
                noise = LoopNoise()
                asker, target = far_pair(cluster)
                actor = cluster.actors[asker]
                gate = asyncio.Event()
                send = cluster.transport.send

                async def slow_send(src, dst, frame):
                    await gate.wait()
                    return await send(src, dst, frame)

                cluster.transport.send = slow_send
                request = asyncio.ensure_future(cluster.ping(asker, target))
                await asyncio.sleep(0)
                assert len(actor.pending) == 1
                request.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await request
                released = len(actor.pending)
                await actor.stop()
                return released, await noise.settle()

        assert run(scenario()) == (0, [])
