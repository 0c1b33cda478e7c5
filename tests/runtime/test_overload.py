"""Overload protection: lanes, shedding, BUSY, breakers.

The tentpole coverage for DESIGN.md §12.  Saturation is produced
deterministically: a victim actor's dispatch (or just its data-kind
handler) is gated on an :class:`asyncio.Event`, so the data lane
fills to its cap on one event-loop turn while control traffic keeps
flowing -- no wall-clock races decide what gets shed.
"""

import asyncio
from dataclasses import replace
from unittest import mock

import pytest

from repro.core.config import NetworkParams, OverlayParams
from repro.core.recovery import DetectorParams
from repro.core.reliability import CircuitOpenError
from repro.runtime import Cluster, ClusterConfig, PeerBusy, run_load
from repro.runtime.recovery import RuntimeRecovery
from repro.runtime.wire import MsgType


def run(coroutine):
    return asyncio.run(coroutine)


#: a breaker threshold no test's failure streak reaches
NEVER_OPENS = 10**9


def make_config(nodes=12, **overrides):
    overrides.setdefault("mailbox_cap", 4)
    overrides.setdefault("busy_retries", 0)
    overrides.setdefault("breaker_threshold", NEVER_OPENS)
    return ClusterConfig(
        nodes=nodes,
        network=NetworkParams(topo_scale=0.25, seed=3),
        overlay=OverlayParams(num_nodes=nodes, seed=5),
        **overrides,
    )


def gate_dispatch(actor):
    """Block the actor's dispatch behind an event; returns the gate."""
    gate = asyncio.Event()
    original = actor._dispatch

    async def gated(frame):
        await gate.wait()
        await original(frame)

    actor._dispatch = gated
    return gate


def pick_peer(cluster, not_on_host=None):
    """A member, optionally excluding a physical host."""
    for node_id, actor in sorted(cluster.actors.items()):
        if node_id == cluster.bootstrap.addr:
            continue
        if not_on_host is not None and int(actor.host) == int(not_on_host):
            continue
        return node_id
    raise AssertionError("no suitable peer")


async def park(origin, victim_id, retry=False):
    """Send one of ``origin``'s requests to ``victim_id`` and let it
    land in the victim's lane (or in flight); returns its task."""
    task = asyncio.ensure_future(
        origin.request(victim_id, MsgType.PUBLISH, {}, retry=retry)
    )
    await asyncio.sleep(0.01)
    return task


async def saturate(origin, victim) -> tuple:
    """Gate ``victim``'s dispatch and park one of ``origin``'s requests
    on it, popped in flight (it hangs on the gate), so with a one-slot
    lane the second data frame after it evicts the first.  Returns
    ``(gate, hung)``."""
    gate = gate_dispatch(victim)
    return gate, [await park(origin, victim.addr)]


async def evict(origin, victim_id, queued):
    """Send a filler arrival that evicts ``queued`` -- a request parked
    in the victim's full one-slot lane -- and await ``queued``'s BUSY.
    Returns the filler's task: the filler is the lane's new occupant."""
    filler = asyncio.ensure_future(
        origin.request(victim_id, MsgType.PUBLISH, {}, retry=False)
    )
    with pytest.raises(PeerBusy):
        await queued
    return filler


#: the config under which :func:`trip_a_breaker` earns exactly four
#: BUSY retries and one breaker trip
TRIPPING = dict(
    nodes=16, mailbox_cap=1,
    busy_retries=2, breaker_threshold=3, breaker_reset_s=30.0,
)  # fmt: skip


async def trip_a_breaker(cluster):
    """A non-bootstrap origin's request and a filler evict each other
    from the one-slot lane of a gated victim on another machine until
    the request's two jittered resends are spent: five BUSYs in a row
    (three to the request, two to the filler), the third of which trips
    the origin's breaker.  Returns ``(origin_id, victim_id, release)``;
    ``await release()`` opens the gate and reaps the hung requests."""
    origin_id = pick_peer(cluster)
    origin = cluster.actors[origin_id]
    victim_id = pick_peer(cluster, not_on_host=origin.host)
    gate, hung = await saturate(origin, cluster.actors[victim_id])
    queued = await park(origin, victim_id)
    hung.append(await evict(origin, victim_id, queued))

    async def release():
        gate.set()
        await asyncio.gather(*hung, return_exceptions=True)

    return origin_id, victim_id, release


class TestLanesAndShedding:
    def test_oldest_policy_sheds_queue_head_and_answers_busy(self):
        async def scenario():
            async with Cluster(make_config()) as cluster:
                origin = cluster.bootstrap
                victim_id = pick_peer(cluster)
                victim = cluster.actors[victim_id]
                gate = gate_dispatch(victim)
                # all 8 publishes land before the drain task first
                # runs: 4 fill the lane, then each of the last 4
                # evicts the current queue head
                tasks = [
                    asyncio.ensure_future(
                        origin.request(victim_id, MsgType.PUBLISH, {}, retry=False)
                    )
                    for _ in range(8)
                ]
                await asyncio.sleep(0.05)
                shed_so_far = cluster.overload_counters()["shed"]
                gate.set()
                results = await asyncio.gather(*tasks, return_exceptions=True)
                busy = [r for r in results if isinstance(r, PeerBusy)]
                ok = [r for r in results if isinstance(r, dict)]
                busy_indices = [
                    i for i, r in enumerate(results) if isinstance(r, PeerBusy)
                ]
                return shed_so_far, len(busy), len(ok), busy_indices

        shed, busy, ok, busy_indices = run(scenario())
        assert shed == 4
        assert busy == 4
        assert ok == 4
        # oldest-first: the stale queue heads (requests 1-4) were
        # evicted; the freshest arrivals survived
        assert busy_indices == [0, 1, 2, 3]

    def test_a_self_addressed_request_refused_by_its_own_full_lane(self):
        """A self-send evicted from its own full lane by the actor's
        next self-send: the BUSY the actor sends itself fails the first
        with the same ``PeerBusy`` a peer's would, and leaves nothing of
        it behind."""

        async def scenario():
            config = make_config(mailbox_cap=1)
            async with Cluster(config) as cluster:
                victim = cluster.actors[pick_peer(cluster)]
                gate, hung = await saturate(cluster.bootstrap, victim)
                registered = len(cluster.deadlines)
                queued = asyncio.ensure_future(victim.rpc_route((0.3, 0.7)))
                await asyncio.sleep(0.01)
                filler = asyncio.ensure_future(victim.rpc_route((0.6, 0.2)))
                with pytest.raises(PeerBusy):
                    await queued
                # only the filler is still waiting
                left = len(victim.pending), len(cluster.deadlines) - registered
                gate.set()
                await asyncio.gather(filler, *hung)
                return left, cluster.overload_counters()["shed"]

        assert run(scenario()) == ((1, 1), 1)

    def test_a_full_lane_over_tcp_still_answers_busy_and_counts_the_shed(self):
        """On a socket the BUSY send is what ``ingress`` is owed: the
        read side's slow path awaits it, frame order intact."""

        async def scenario():
            config = make_config(transport="tcp")
            async with Cluster(config) as cluster:
                origin = cluster.bootstrap
                victim_id = pick_peer(cluster)
                gate = gate_dispatch(cluster.actors[victim_id])
                # one batch, one chunk: 4 fill the lane, the 5th evicts
                # its head; the pump's first turn comes before the rest
                tasks = [
                    asyncio.ensure_future(
                        origin.request(victim_id, MsgType.PUBLISH, {}, retry=False)
                    )
                    for _ in range(8)
                ]
                await asyncio.wait(tasks, return_when=asyncio.FIRST_COMPLETED)
                first_done = [i for i, task in enumerate(tasks) if task.done()]
                gate.set()
                results = await asyncio.gather(*tasks, return_exceptions=True)
                busy = [i for i, r in enumerate(results) if isinstance(r, PeerBusy)]
                served = sum(isinstance(r, dict) for r in results)
                return first_done, busy, served, cluster.overload_counters()["shed"]

        first_done, busy, served, shed = run(scenario())
        # the evicted head's BUSY arrives while dispatch is gated
        assert first_done[0] == busy[0] == 0
        assert len(busy) == shed >= 2
        assert served == 8 - shed

    def test_control_lane_is_never_shed(self):
        """HEARTBEATs pile up past any cap without a single shed."""

        async def scenario():
            async with Cluster(make_config(mailbox_cap=2)) as cluster:
                origin = cluster.bootstrap
                victim_id = pick_peer(cluster)
                victim = cluster.actors[victim_id]
                gate = gate_dispatch(victim)
                tasks = [
                    asyncio.ensure_future(
                        origin.request(
                            victim_id, MsgType.HEARTBEAT, {"seq": i}, retry=False
                        )
                    )
                    for i in range(12)
                ]
                await asyncio.sleep(0.05)
                depth = len(victim.control_lane)
                shed = cluster.overload_counters()["shed"]
                gate.set()
                results = await asyncio.gather(*tasks, return_exceptions=True)
                return depth, shed, [r for r in results if not isinstance(r, dict)]

        depth, shed, failures = run(scenario())
        assert depth == 11  # 12 queued minus the one popped in-flight
        assert shed == 0
        assert failures == []

    def test_unbounded_cap_never_sheds(self):
        """A cap above the flood (32 frames into a 33-deep lane) acts
        as no cap at all: nothing is shed and every request answers."""

        async def scenario():
            config = make_config(mailbox_cap=33)
            async with Cluster(config) as cluster:
                origin = cluster.bootstrap
                victim_id = pick_peer(cluster)
                victim = cluster.actors[victim_id]
                gate = gate_dispatch(victim)
                tasks = [
                    asyncio.ensure_future(
                        origin.request(victim_id, MsgType.PUBLISH, {}, retry=False)
                    )
                    for _ in range(32)
                ]
                await asyncio.sleep(0.05)
                gate.set()
                results = await asyncio.gather(*tasks, return_exceptions=True)
                return cluster.overload_counters()["shed"], results

        shed, results = run(scenario())
        assert shed == 0
        assert all(isinstance(r, dict) for r in results)

    def test_config_validates_overload_knobs(self):
        with pytest.raises(ValueError, match="mailbox_cap"):
            make_config(mailbox_cap=0)
        with pytest.raises(ValueError, match="breaker_threshold"):
            make_config(breaker_threshold=0)


class TestHeartbeatSurvivalUnderSaturation:
    def test_heartbeats_round_trip_while_data_lane_is_at_cap(self):
        """The satellite scenario: flood the data lane to its cap and
        assert HEARTBEAT round-trips still complete and no suspicion
        is raised -- an overloaded node must not look dead."""

        async def scenario():
            config = make_config(nodes=16, mailbox_cap=8)
            async with Cluster(config) as cluster:
                origin = cluster.bootstrap
                victim_id = pick_peer(cluster)
                victim = cluster.actors[victim_id]

                # slow (not blocked) data handling: each publish takes
                # ~10ms, so the backlog stays near cap while probes run
                original_publish = victim._handle_publish

                async def slow_publish(frame):
                    await asyncio.sleep(0.01)
                    await original_publish(frame)

                victim._handle_publish = slow_publish
                flood = [
                    asyncio.ensure_future(
                        origin.request(victim_id, MsgType.PUBLISH, {}, retry=False)
                    )
                    for _ in range(60)
                ]
                await asyncio.sleep(0.005)  # let the lane hit its cap
                assert len(victim.data_lane) >= config.mailbox_cap - 1

                # heartbeat round-trips complete fast: the control lane
                # drains ahead of the queued data backlog
                began = asyncio.get_running_loop().time()
                ack = await cluster.ping(origin.addr, victim_id, seq=99)
                heartbeat_s = asyncio.get_running_loop().time() - began

                # a hand-ticked detector raises no suspicion while the
                # victim is saturated
                recovery = RuntimeRecovery(
                    cluster,
                    DetectorParams(period=50.0, suspicion_periods=1),
                    seed=11,
                )
                for _ in range(3):
                    await recovery.tick()
                suspected = dict(recovery.suspected)
                false_kills = recovery.false_kills
                confirmed = list(recovery.confirmed_dead)

                results = await asyncio.gather(*flood, return_exceptions=True)
                sheds = cluster.overload_counters()["shed"]
                busy = sum(1 for r in results if isinstance(r, PeerBusy))
                return ack, heartbeat_s, suspected, false_kills, confirmed, sheds, busy

        ack, heartbeat_s, suspected, false_kills, confirmed, sheds, busy = run(
            scenario()
        )
        assert ack["seq"] == 99
        assert heartbeat_s < 0.25  # far below probe_timeout, not FIFO'd
        assert suspected == {}
        assert confirmed == []
        assert false_kills == 0
        assert sheds > 0  # the flood really did saturate the lane
        assert busy == sheds  # every shed answered BUSY to its origin


class TestDetectorShielding:
    def test_busy_counts_as_alive_evidence(self):
        async def scenario():
            async with Cluster(make_config(nodes=8)) as cluster:
                recovery = RuntimeRecovery(
                    cluster, DetectorParams(period=50.0), seed=11
                )
                prober = cluster.bootstrap.addr
                target = pick_peer(cluster)
                actor = cluster.actors[prober]

                async def busy_request(*args, **kwargs):
                    raise PeerBusy("peer shed the probe")

                actor.request = busy_request
                return await recovery._heartbeat(prober, target)

        assert run(scenario()) is True


class TestCircuitBreaker:
    def test_consecutive_busy_opens_then_fast_fails_then_recovers(self):
        async def scenario():
            config = make_config(
                mailbox_cap=1,
                breaker_threshold=2,
                breaker_reset_s=0.05,
            )
            async with Cluster(config) as cluster:
                origin = cluster.bootstrap
                victim_id = pick_peer(cluster)
                gate, hung = await saturate(origin, cluster.actors[victim_id])
                # two BUSY sheds in a row open the breaker...
                queued = await park(origin, victim_id)
                for _ in range(2):
                    queued = await evict(origin, victim_id, queued)
                hung.append(queued)
                counters_open = cluster.overload_counters()
                # ...and the next request fast-fails locally
                with pytest.raises(CircuitOpenError):
                    await origin.request(victim_id, MsgType.PUBLISH, {}, retry=False)
                counters_fastfail = cluster.overload_counters()
                # after the reset window a half-open probe goes through
                gate.set()
                await asyncio.gather(*hung)
                await asyncio.sleep(0.06)
                ack = await origin.request(
                    victim_id, MsgType.PUBLISH, {}, retry=False
                )
                counters_closed = cluster.overload_counters()
                return counters_open, counters_fastfail, counters_closed, ack

        opened, fastfailed, closed, ack = run(scenario())
        assert opened["breaker_opens"] == 1
        assert opened["busy_replies"] == 2
        assert fastfailed["breaker_fastfails"] == 1
        assert closed["breaker_closes"] == 1
        assert closed["breakers_open_now"] == 0
        assert isinstance(ack, dict)

    def test_reset_window_runs_on_the_event_loop_clock(self):
        """The window elapses when the loop's clock says so, with no wall
        time passing: the breaker reads the clock the deadline table
        reads, not ``time.monotonic``."""

        class SteppedLoop(asyncio.SelectorEventLoop):
            offset = 0.0

            def time(self):
                return super().time() + self.offset

        async def scenario():
            config = make_config(breaker_threshold=1, breaker_reset_s=3600.0)
            async with Cluster(config) as cluster:
                origin = cluster.bootstrap
                victim_id = pick_peer(cluster)
                origin.breaker.record_failure()
                with pytest.raises(CircuitOpenError):
                    await origin.request(victim_id, MsgType.PUBLISH, {}, retry=False)
                asyncio.get_running_loop().offset += 3600.0
                # the half-open probe goes out, and its ACK closes the circuit
                await origin.request(victim_id, MsgType.PUBLISH, {}, retry=False)
                return cluster.overload_counters()["breakers_open_now"]

        loop = SteppedLoop()
        try:
            assert loop.run_until_complete(scenario()) == 0
        finally:
            loop.close()

    def test_control_traffic_ignores_breakers(self):
        """HEARTBEATs flow to a peer whose data breaker is open."""

        async def scenario():
            config = make_config(mailbox_cap=1, breaker_threshold=1)
            async with Cluster(config) as cluster:
                origin = cluster.bootstrap
                victim_id = pick_peer(cluster)
                gate, hung = await saturate(origin, cluster.actors[victim_id])
                queued = await park(origin, victim_id)
                hung.append(await evict(origin, victim_id, queued))
                assert cluster.overload_counters()["breakers_open_now"] == 1
                with pytest.raises(CircuitOpenError):
                    await origin.request(victim_id, MsgType.PUBLISH, {}, retry=False)
                gate.set()
                # the surviving requests complete, and their successes
                # close the breaker again
                await asyncio.gather(*hung)
                assert cluster.overload_counters()["breakers_open_now"] == 0
                # re-open it without any traffic in flight, so data
                # fast-fails while the victim is perfectly healthy...
                origin.breaker.record_failure()
                with pytest.raises(CircuitOpenError):
                    await origin.request(victim_id, MsgType.PUBLISH, {}, retry=False)
                # ...but the heartbeat goes through: control frames
                # never consult a breaker
                ack = await cluster.ping(origin.addr, victim_id, seq=7)
                return ack, cluster.overload_counters()["breakers_open_now"]

        ack, still_open = run(scenario())
        assert ack["seq"] == 7
        assert still_open == 1

    def test_busy_retry_budget_can_outlast_a_transient(self):
        """With busy_retries armed, a shed request succeeds on resend
        once the backlog clears."""

        async def scenario():
            config = make_config(mailbox_cap=1, busy_retries=8)
            async with Cluster(config) as cluster:
                origin = cluster.bootstrap
                victim_id = pick_peer(cluster)
                gate, hung = await saturate(origin, cluster.actors[victim_id])
                # the filler sheds this request now; it and the filler
                # evict each other until the gate opens, and a resend
                # lands after that
                retried = await park(origin, victim_id)
                hung.append(
                    asyncio.ensure_future(
                        origin.request(victim_id, MsgType.PUBLISH, {}, retry=False)
                    )
                )
                await asyncio.sleep(0.01)
                gate.set()
                await asyncio.gather(*hung)
                ack = await retried
                return ack, cluster.overload_counters()["busy_retries"]

        ack, busy_retries = run(scenario())
        assert isinstance(ack, dict)
        assert busy_retries >= 1

    def test_overload_counts_outlive_the_actor_that_earned_them(self):
        """Every key but the ``breakers_open_now`` gauge is a
        process-lifetime count: the origin's BUSY retries and tripped
        breaker stay on the books through its crash, a rejoin and
        another member's departure."""

        async def scenario():
            async with Cluster(make_config(**TRIPPING)) as cluster:
                origin_id, victim_id, release = await trip_a_breaker(cluster)
                reads = [cluster.overload_counters()]
                await cluster.crash(origin_id)
                reads.append(cluster.overload_counters())
                await release()
                await cluster.restart()
                reads.append(cluster.overload_counters())
                await cluster.leave(victim_id)
                reads.append(cluster.overload_counters())
                return reads

        reads = run(scenario())
        earned = reads[0]
        assert earned["busy_retries"] == 4 and earned["breaker_opens"] == 1
        assert earned["busy_replies"] == earned["shed"] == 5
        assert earned["breakers_open_now"] == 1
        assert reads[1]["breakers_open_now"] == 0  # the one gauge
        for earlier, later in zip(reads, reads[1:]):
            assert set(later) == set(earlier)
            for key in later:
                if key != "breakers_open_now":
                    assert later[key] >= earlier[key], (key, reads)

    def test_busy_retry_timing_is_a_function_of_the_seed(self):
        """Two boots from one seed back off by the same delay ladder."""

        async def ladder(seed):
            config = make_config(mailbox_cap=1, busy_retries=5)
            config.overlay = replace(config.overlay, seed=seed)
            async with Cluster(config) as cluster:
                origin = cluster.bootstrap
                victim_id = pick_peer(cluster)
                gate, hung = await saturate(origin, cluster.actors[victim_id])
                queued = await park(origin, victim_id, retry=None)
                delays = []
                real_sleep = asyncio.sleep

                async def recording_sleep(delay):
                    delays.append(delay * 1000.0)
                    await real_sleep(0)

                # the request and the filler evict each other until the
                # request's resends are spent: both ladders are drawn,
                # five resends each
                with mock.patch.object(asyncio, "sleep", recording_sleep):
                    hung.append(await evict(origin, victim_id, queued))
                gate.set()
                await asyncio.gather(*hung)
                return [delay for delay in delays if delay > 0.0]

        first, again, other = run(ladder(5)), run(ladder(5)), run(ladder(6))
        assert len(first) == 10 and all(2.0 <= delay <= 250.0 for delay in first)
        assert first == again
        assert first != other


class TestCrashDropAccounting:
    def test_crash_counts_queued_frames(self):
        async def scenario():
            async with Cluster(make_config(nodes=16, mailbox_cap=64)) as cluster:
                origin = cluster.bootstrap
                victim_id = pick_peer(cluster)
                victim = cluster.actors[victim_id]
                gate_dispatch(victim)  # never opened: frames stay queued
                tasks = [
                    asyncio.ensure_future(
                        origin.request(victim_id, MsgType.PUBLISH, {}, retry=False)
                    )
                    for _ in range(4)
                ]
                await asyncio.sleep(0.01)
                queued = len(victim.data_lane)
                await cluster.crash(victim_id)
                dropped = cluster.overload_counters()["crash_dropped"]
                for task in tasks:
                    task.cancel()
                await asyncio.gather(*tasks, return_exceptions=True)
                return queued, dropped

        queued, dropped = run(scenario())
        # 4 requests: one popped in-flight, three queued at crash time
        assert queued == 3
        assert dropped == 3

    def test_crash_fails_the_victims_pending_requests_immediately(self):
        async def scenario():
            async with Cluster(make_config(nodes=16, mailbox_cap=64)) as cluster:
                victim_id = pick_peer(cluster)
                victim = cluster.actors[victim_id]
                peer_id = pick_peer(cluster, not_on_host=victim.host)
                peer = cluster.actors[peer_id]
                gate_dispatch(peer)  # the reply will never come
                pending = asyncio.ensure_future(
                    victim.request(peer_id, MsgType.PUBLISH, {}, retry=False)
                )
                await asyncio.sleep(0.01)
                assert not pending.done()
                await cluster.crash(victim_id)
                # the future must fail promptly, not after the timeout
                try:
                    await asyncio.wait_for(pending, timeout=1.0)
                except asyncio.TimeoutError:
                    return "hung"
                except Exception as exc:
                    return type(exc).__name__
                return "succeeded"

        assert run(scenario()) == "TransportError"


class TestLoadgenOverloadAccounting:
    def test_open_loop_flood_sheds_and_reports(self):
        """An open-loop burst far past capacity sheds at the origin
        lanes and the load report carries the accounting."""

        async def scenario():
            config = make_config(
                nodes=8,
                mailbox_cap=8,
                busy_retries=2,
            )
            async with Cluster(config) as cluster:
                report = await run_load(
                    cluster, rate=1_000_000.0, count=300, seed=7, op="lookup"
                )
                return report

        report = run(scenario())
        assert report.ops == 300
        assert report.shed > 0  # the burst really overflowed the lanes
        summary = report.summary()
        assert summary["wall_shed"] == report.shed
        assert summary["wall_busy_errors"] == report.busy_errors
        assert summary["wall_breaker_fastfails"] == report.breaker_fastfails
        # every request resolved one way or the other
        assert len(report.latencies_ms) + len(report.error_latencies_ms) == 300
