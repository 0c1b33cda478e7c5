"""Retry policies: backoff schedule, execution, reliable measurement."""

import dataclasses
import pickle

import numpy as np
import pytest

from repro.core import RetryPolicy, measure_vector_reliably
from repro.core.reliability import NO_RETRY
from repro.core.telemetry import Telemetry
from repro.netsim import FaultPlan, ProbeTimeout
from repro.netsim.events import EventScheduler
from repro.proximity.landmarks import select_landmarks


class TestSchedule:
    def test_exponential_backoff_capped(self):
        policy = RetryPolicy(max_attempts=5, base_delay=10.0, max_delay=35.0)
        assert policy.schedule() == (10.0, 20.0, 35.0, 35.0)
        assert policy.delay(0) == 10.0
        assert policy.delay(10) == 35.0

    def test_no_retry_baseline_never_waits(self):
        assert NO_RETRY.max_attempts == 1
        assert NO_RETRY.schedule() == ()

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=100.0, max_delay=10.0)
        with pytest.raises(ValueError):
            RetryPolicy().delay(-1)


class TestCall:
    def test_succeeds_after_transient_failures(self, tiny_network):
        policy = RetryPolicy(max_attempts=3, base_delay=5.0)
        attempts = []

        def flaky(attempt):
            attempts.append(attempt)
            if attempt < 2:
                raise ProbeTimeout(0, 1)
            return "ok"

        start, ledger = tiny_network.clock.now, tiny_network.telemetry
        assert policy.call(flaky, clock=tiny_network.clock, telemetry=ledger) == "ok"
        assert attempts == [0, 1, 2]
        # two backoffs were slept through on the simulated clock
        assert tiny_network.clock.now == start + 5.0 + 10.0

    def test_exhaustion_reraises_last(self, tiny_network):
        policy = RetryPolicy(max_attempts=2, base_delay=1.0)

        def always_lost(attempt):
            raise ProbeTimeout(0, 1, reason=f"attempt-{attempt}")

        with pytest.raises(ProbeTimeout) as exc_info:
            policy.call(
                always_lost, clock=tiny_network.clock, telemetry=tiny_network.telemetry
            )
        assert exc_info.value.reason == "attempt-1"

    def test_unlisted_exceptions_propagate_immediately(self):
        policy = RetryPolicy(max_attempts=5)
        calls = []

        def broken(attempt):
            calls.append(attempt)
            raise KeyError("not a network fault")

        with pytest.raises(KeyError):
            policy.call(broken, telemetry=Telemetry())
        assert calls == [0]

    def test_backoff_tracked_without_clock(self):
        """Regression: ``call`` used to skip backoff entirely when no
        clock was passed, so clockless callers silently under-reported
        recovery time."""
        policy = RetryPolicy(max_attempts=3, base_delay=5.0)
        telemetry = Telemetry()

        def flaky(attempt):
            if attempt < 2:
                raise ProbeTimeout(0, 1)
            return "ok"

        assert policy.call(flaky, telemetry=telemetry) == "ok"  # note: clock=None
        assert telemetry.events == {"retry": 2, "backoff_ms": 5.0 + 10.0}
        # the ledger is not optional: forgetting it fails loudly
        with pytest.raises(TypeError):
            policy.call(flaky)
        with pytest.raises(TypeError):
            policy.sleep(0)

    def test_a_policy_is_a_pure_schedule(self):
        """Using a policy leaves nothing on it: equal policies stay
        interchangeable through ``pickle`` and ``replace``."""
        policy = RetryPolicy(max_attempts=3, base_delay=5.0)
        policy.sleep(0, telemetry=Telemetry())
        fields = {f.name for f in dataclasses.fields(RetryPolicy)}
        assert fields == {"max_attempts", "base_delay", "max_delay"}
        for copy in (
            policy,
            pickle.loads(pickle.dumps(policy)),
            dataclasses.replace(policy, max_attempts=4),
            NO_RETRY,
        ):
            assert set(vars(copy)) == fields
        with pytest.raises(dataclasses.FrozenInstanceError):
            policy.retries = 1

    def test_backoff_charged_to_telemetry(self):
        clock = EventScheduler()
        telemetry = Telemetry(clock=clock)
        policy = RetryPolicy(max_attempts=3, base_delay=5.0)

        def always_lost(attempt):
            raise ProbeTimeout(0, 1)

        with pytest.raises(ProbeTimeout):
            policy.call(always_lost, clock=clock, telemetry=telemetry)
        assert telemetry.events == {"retry": 2, "backoff_ms": 15.0}
        assert clock.now == 15.0

    def test_probe_advances_network_clock_and_telemetry(self, tiny_network):
        hosts = tiny_network.topology.stub_nodes()
        u, v = int(hosts[0]), int(hosts[1])
        tiny_network.arm_faults(FaultPlan(probe_loss_rate=1.0), seed=0)
        policy = RetryPolicy(max_attempts=3, base_delay=7.0)
        start = tiny_network.clock.now
        backoff_before = tiny_network.telemetry.events["backoff_ms"]
        with pytest.raises(ProbeTimeout):
            policy.probe(tiny_network, u, v)
        assert tiny_network.clock.now == start + 7.0 + 14.0
        assert (
            tiny_network.telemetry.events["backoff_ms"] - backoff_before
            == 21.0
        )
        tiny_network.disarm_faults()

    def test_probe_retries_through_loss(self, tiny_network):
        hosts = tiny_network.topology.stub_nodes()
        u, v = int(hosts[0]), int(hosts[1])
        # seed chosen so the first draw is a loss and a later one is not
        injector = tiny_network.arm_faults(FaultPlan(probe_loss_rate=0.5), seed=3)
        policy = RetryPolicy(max_attempts=8, base_delay=1.0)
        rtt = policy.probe(tiny_network, u, v)
        assert float(rtt) > 0
        assert injector.injected["fault_probe_lost"] >= 1
        tiny_network.disarm_faults()


class TestReliableMeasurement:
    def test_matches_plain_measurement_without_faults(self, tiny_network, rng):
        landmarks = select_landmarks(tiny_network, 6, rng)
        host = int(tiny_network.topology.stub_nodes()[0])
        vector = measure_vector_reliably(tiny_network, landmarks, host)
        plain = tiny_network.rtt_many(host, landmarks.hosts)
        assert np.allclose(vector, plain)

    def test_reprobes_lost_entries(self, tiny_network, rng):
        landmarks = select_landmarks(tiny_network, 8, rng)
        host = int(tiny_network.topology.stub_nodes()[0])
        tiny_network.arm_faults(FaultPlan(probe_loss_rate=0.4), seed=11)
        vector = measure_vector_reliably(
            tiny_network,
            landmarks,
            host,
            policy=RetryPolicy(max_attempts=6, base_delay=1.0),
        )
        assert not np.isnan(vector).any()
        assert (vector >= 0).all()
        tiny_network.disarm_faults()

    def test_all_silent_raises(self, tiny_network, rng):
        landmarks = select_landmarks(tiny_network, 4, rng)
        host = int(tiny_network.topology.stub_nodes()[0])
        tiny_network.arm_faults(FaultPlan(probe_loss_rate=1.0), seed=0)
        with pytest.raises(ProbeTimeout):
            measure_vector_reliably(
                tiny_network, landmarks, host, policy=RetryPolicy(max_attempts=2)
            )
        tiny_network.disarm_faults()


class ScriptedNetwork:
    """Replays preset responses for rtt_many."""

    def __init__(self, responses):
        self.responses = list(responses)
        self.clock = EventScheduler()
        self.telemetry = Telemetry(clock=self.clock)

    def rtt_many(self, host, hosts, category="rtt_probe"):
        rtts = self.responses.pop(0)
        assert len(rtts) == len(hosts)
        return np.asarray(rtts, dtype=np.float64)


class FakeLandmarks:
    def __init__(self, n):
        self.hosts = np.arange(n, dtype=np.int64)


class TestLostEntryFill:
    def test_fill_is_the_worst_measurement(self):
        """An entry still silent after the retries is filled with the
        worst RTT that did answer."""
        network = ScriptedNetwork(
            [
                [5.0, 100.0, np.nan, 10.0],
                [np.nan],  # the retry stays silent too
            ]
        )
        vector = measure_vector_reliably(
            network,
            FakeLandmarks(4),
            host=0,
            policy=RetryPolicy(max_attempts=2, base_delay=1.0),
        )
        assert list(vector) == [5.0, 100.0, 100.0, 10.0]


class FakeClock:
    """Monotonic clock a test advances by hand."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


class TestCircuitBreaker:
    def make(self, threshold=3, reset=1.0):
        from repro.core.reliability import CircuitBreaker

        clock = FakeClock()
        return CircuitBreaker(threshold=threshold, reset_timeout_s=reset, clock=clock), clock

    def test_opens_after_threshold_consecutive_failures(self):
        breaker, _ = self.make(threshold=3)
        assert breaker.record_failure() is False
        assert breaker.record_failure() is False
        assert breaker.record_failure() is True  # this call opened it
        assert breaker.state == breaker.OPEN
        assert breaker.opens == 1
        assert not breaker.allow()
        assert breaker.fast_fails == 1

    def test_success_resets_the_failure_streak(self):
        breaker, _ = self.make(threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == breaker.CLOSED  # streak broke; not 2 in a row

    def test_half_open_probe_success_closes(self):
        breaker, clock = self.make(threshold=1, reset=1.0)
        breaker.record_failure()
        assert breaker.state == breaker.OPEN
        clock.advance(1.5)
        assert breaker.allow()  # the half-open probe
        assert breaker.state == breaker.HALF_OPEN
        assert not breaker.allow()  # only one probe in flight
        breaker.record_success()
        assert breaker.state == breaker.CLOSED
        assert breaker.closes == 1
        assert breaker.allow()

    def test_half_open_probe_failure_reopens(self):
        breaker, clock = self.make(threshold=1, reset=1.0)
        breaker.record_failure()
        clock.advance(1.1)
        assert breaker.allow()
        assert breaker.record_failure() is True  # straight back to open
        assert breaker.state == breaker.OPEN
        assert breaker.opens == 2
        assert not breaker.allow()  # fresh window, not expired yet

    def test_retry_after_counts_down(self):
        breaker, clock = self.make(threshold=1, reset=2.0)
        assert breaker.retry_after_s() == 0.0  # closed
        breaker.record_failure()
        assert breaker.retry_after_s() == pytest.approx(2.0)
        clock.advance(1.5)
        assert breaker.retry_after_s() == pytest.approx(0.5)

    def test_validation(self):
        from repro.core.reliability import CircuitBreaker

        clock = FakeClock()
        with pytest.raises(ValueError, match="threshold"):
            CircuitBreaker(threshold=0, reset_timeout_s=1.0, clock=clock)
        with pytest.raises(ValueError, match="reset_timeout_s"):
            CircuitBreaker(threshold=8, reset_timeout_s=0.0, clock=clock)


class TestDecorrelatedJitter:
    def test_delays_stay_within_base_and_cap(self):
        import random

        from repro.core.reliability import DecorrelatedJitter

        jitter = DecorrelatedJitter(rng=random.Random(7))
        delays = [jitter.next_delay() for _ in range(200)]
        assert all(2.0 <= d <= 250.0 for d in delays)
        assert max(delays) == 250.0  # the ladder does reach the cap

    def test_ladder_grows_from_previous_delay(self):
        import random

        from repro.core.reliability import DecorrelatedJitter

        jitter = DecorrelatedJitter(rng=random.Random(3))
        prev = 2.0
        for _ in range(20):
            delay = jitter.next_delay()
            assert 2.0 <= delay <= prev * 3.0
            prev = delay


class FakeFuture:
    """The two methods a :class:`DeadlineTable` needs of a future."""

    def __init__(self, clock=None):
        self.clock = clock
        self.error = None
        self.failed_at = None
        self.completed = False

    def done(self) -> bool:
        return self.completed or self.error is not None

    def set_exception(self, error) -> None:
        assert not self.done(), "a finished future must never be touched"
        self.error = error
        if self.clock is not None:
            self.failed_at = self.clock.now


class FakeTimers:
    """``call_later`` stand-in: timers fire as the test advances the clock."""

    class Handle:
        def __init__(self, due, callback):
            self.due = due
            self.callback = callback
            self.cancelled = False

        def cancel(self) -> None:
            self.cancelled = True

    def __init__(self, clock):
        self.clock = clock
        self.handles = []
        self.scheduled = 0

    def call_later(self, delay, callback):
        handle = self.Handle(self.clock.now + delay, callback)
        self.handles.append(handle)
        self.scheduled += 1
        return handle

    @property
    def armed(self) -> int:
        return sum(1 for handle in self.handles if not handle.cancelled)

    def advance(self, dt: float) -> None:
        """Move the clock ``dt`` forward, firing each timer at its due time."""
        end = self.clock.now + dt
        while True:
            due = [h for h in self.handles if not h.cancelled and h.due <= end]
            if not due:
                break
            handle = min(due, key=lambda h: h.due)
            self.handles.remove(handle)
            self.clock.now = max(self.clock.now, handle.due)
            handle.callback()
        self.clock.now = end


class TestDeadlineTable:
    def make(self):
        from repro.core.reliability import DeadlineTable

        clock = FakeClock()
        timers = FakeTimers(clock)
        return DeadlineTable(clock, timers.call_later), clock, timers

    def test_never_fires_early_and_at_most_one_tick_late(self):
        from repro.core.reliability import DEADLINE_TICK_S

        table, clock, timers = self.make()
        step = DEADLINE_TICK_S / 7.0
        futures = {}
        for k in range(40):  # deadlines at every phase of the tick
            future = FakeFuture(clock)
            futures[future] = clock.now + 0.05 + k * step
            table.add(future, futures[future])
            timers.advance(step)
        timers.advance(1.0)
        for future, deadline in futures.items():
            assert isinstance(future.error, TimeoutError)
            assert deadline <= future.failed_at <= deadline + DEADLINE_TICK_S

    def test_a_thousand_deadlines_share_one_timer(self):
        from repro.core.reliability import DEADLINE_TICK_S

        table, clock, timers = self.make()
        assert timers.armed == 0
        futures = [FakeFuture() for _ in range(1000)]
        for k, future in enumerate(futures):
            table.add(future, 5.0 + k * 1e-4)
            assert timers.armed == 1
        assert len(table) == 1000
        timers.advance(1.0)  # a hundred sweeps, nothing due
        assert timers.armed == 1
        assert not any(future.done() for future in futures)
        for future in futures:
            table.discard(future)
        assert len(table) == 0
        timers.advance(DEADLINE_TICK_S)  # the sweep that finds it empty
        assert timers.armed == 0
        scheduled = timers.scheduled
        timers.advance(1.0)
        assert timers.scheduled == scheduled, "an empty table schedules nothing"

    def test_completed_future_is_dropped_untouched(self):
        table, clock, timers = self.make()
        answered, silent = FakeFuture(), FakeFuture()
        table.add(answered, 0.1)
        table.add(silent, 0.1)
        answered.completed = True  # FakeFuture asserts if it is failed now
        timers.advance(0.2)
        assert answered.error is None
        assert isinstance(silent.error, TimeoutError)
        assert len(table) == 0 and timers.armed == 0

    def test_rearms_after_going_empty(self):
        table, clock, timers = self.make()
        first = FakeFuture()
        table.add(first, 0.05)
        timers.advance(0.1)
        assert first.done() and timers.armed == 0
        second = FakeFuture()
        table.add(second, clock.now + 0.05)
        assert timers.armed == 1
        timers.advance(0.04)
        assert not second.done()
        timers.advance(0.03)
        assert isinstance(second.error, TimeoutError)

    def test_clear_cancels_the_timer_and_forgets_everything(self):
        table, clock, timers = self.make()
        future = FakeFuture()
        table.add(future, 0.05)
        table.clear()
        assert len(table) == 0 and timers.armed == 0
        timers.advance(1.0)
        assert not future.done()
        table.add(future, clock.now + 0.05)  # still usable afterwards
        assert timers.armed == 1
