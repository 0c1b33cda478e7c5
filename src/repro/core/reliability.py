"""Retry, timeout, backoff and overload-reaction policies.

Every layer that talks to the (fault-injectable) network shares one
:class:`RetryPolicy`: a bounded number of attempts separated by
exponential backoff that advances the *simulated* clock -- never
wall-clock time -- so resilience experiments stay deterministic and
can report recovery times in simulated milliseconds.

The live runtime additionally needs client-side *overload* reaction:
:class:`DecorrelatedJitter` spreads BUSY retries so shed requests do
not re-arrive in lockstep, :class:`CircuitBreaker` stops a request
origin that keeps being shed or timing out from adding more load
(closed -> open -> half-open probe -> closed), and
:class:`DeadlineTable` enforces every in-flight request's deadline in
a process from one shared sweep timer.  All three are pure state
machines over an injected clock/rng/timer, so they stay unit-testable
and deterministic outside the event loop.

Consumers receive a policy instance rather than importing this module
(the soft-state and overlay packages sit *below* ``repro.core`` in
the import graph):

* eCAN routing retries each forwarding hop, skips expressway entries
  that keep failing, and degrades to greedy CAN neighbors;
* hybrid proximity search retries timed-out candidate probes and
  falls back to pure landmark ranking when every probe times out;
* periodic maintenance confirms a suspected death ``confirmations``
  times before purging, eliminating false-positive purges under loss;
* new joiners re-probe landmarks whose measurements were lost.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from repro.netsim.faults import ProbeTimeout


class CircuitOpenError(Exception):
    """Raised (fast, locally) while the origin's circuit breaker is open."""

    def __init__(self, peer, retry_after_s: float = 0.0):
        super().__init__(f"circuit open for peer {peer!r}")
        self.peer = peer
        self.retry_after_s = retry_after_s


#: each backoff is this many times the one before it
BACKOFF_FACTOR = 2.0


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded attempts with sim-clock exponential backoff.

    ``delay(k)`` is the wait after the ``k``-th failed attempt
    (0-indexed): ``base_delay * BACKOFF_FACTOR**k`` capped at
    ``max_delay``.  A policy with ``max_attempts=1`` never retries
    (the "no-retry" baseline of the resilience experiments).
    """

    max_attempts: int = 3
    base_delay: float = 50.0
    max_delay: float = 2000.0

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay < 0:
            raise ValueError("base_delay must be non-negative")
        if self.max_delay < self.base_delay:
            raise ValueError("max_delay must be >= base_delay")

    # -- schedule ----------------------------------------------------------

    def delay(self, attempt: int) -> float:
        """Backoff (simulated ms) after failed attempt ``attempt``."""
        if attempt < 0:
            raise ValueError("attempt must be non-negative")
        return min(self.base_delay * BACKOFF_FACTOR**attempt, self.max_delay)

    def schedule(self) -> tuple:
        """All backoff delays a fully exhausted call sleeps through."""
        return tuple(self.delay(k) for k in range(self.max_attempts - 1))

    # -- execution ---------------------------------------------------------

    def sleep(self, attempt: int, *, telemetry, clock=None) -> float:
        """Back off after failed attempt ``attempt`` and account for it.

        Advances the simulated ``clock`` when one is given, and always
        charges one ``retry`` and the delay as ``backoff_ms`` to
        ``telemetry`` -- the ledger of the network the retry happened
        on.  ``telemetry`` is required: a caller that forgets it fails
        with a ``TypeError`` instead of under-reporting recovery time,
        and the policy itself stays a pure, shareable schedule.
        """
        delay = self.delay(attempt)
        if clock is not None:
            clock.advance(delay)
        telemetry.count("retry")
        telemetry.count("backoff_ms", delay)
        return delay

    def call(self, fn, *, telemetry, clock=None):
        """Run ``fn(attempt)`` until it raises no :class:`ProbeTimeout`
        or attempts run out.

        Between attempts the simulated ``clock`` (if given) is advanced
        by the backoff delay and every backoff is charged to
        ``telemetry`` (see :meth:`sleep`).  The final failure re-raises.
        """
        last = None
        for attempt in range(self.max_attempts):
            try:
                return fn(attempt)
            except ProbeTimeout as exc:
                last = exc
                if attempt + 1 < self.max_attempts:
                    self.sleep(attempt, telemetry=telemetry, clock=clock)
        raise last

    def probe(self, network, u: int, v: int, category: str = "rtt_probe"):
        """RTT probe with retries; each attempt is charged as usual.

        The network's clock and telemetry are passed unconditionally,
        so backoff always advances simulated time and is charged.
        """
        return self.call(
            lambda attempt: network.rtt(u, v, category=category),
            clock=network.clock,
            telemetry=network.telemetry,
        )


#: the fire-and-forget baseline: one attempt, no waiting
NO_RETRY = RetryPolicy(max_attempts=1, base_delay=0.0, max_delay=0.0)


class DecorrelatedJitter:
    """AWS-style decorrelated-jitter backoff for BUSY retries.

    Each delay is ``min(cap, uniform(base, prev * 3))`` -- the spread
    grows with consecutive retries but successive clients never sync
    up on a common schedule the way plain exponential backoff does,
    so a shedding peer is not hit by a retry *wave*.  One ladder
    serves one request.
    """

    #: the first delay and the floor of every draw (ms)
    BASE_MS = 2.0
    #: the ceiling of every draw (ms)
    CAP_MS = 250.0

    def __init__(self, rng: random.Random):
        self._rng = rng
        self._prev_ms = self.BASE_MS

    def next_delay(self) -> float:
        """Next backoff in milliseconds (also advances the ladder)."""
        delay = min(self.CAP_MS, self._rng.uniform(self.BASE_MS, self._prev_ms * 3.0))
        self._prev_ms = delay
        return delay


class CircuitBreaker:
    """A request origin's circuit breaker: closed -> open -> half-open -> closed.

    ``threshold`` *consecutive* failures (BUSY sheds or timeouts) open
    the circuit; while open, :meth:`allow` fast-fails locally so a
    struggling overlay gets breathing room instead of more retries.
    After ``reset_timeout_s`` one half-open probe is let through: its
    success closes the circuit, its failure re-opens it for another
    full window.  The clock is injected -- the event loop's on the
    request path, a fake one in tests -- so state transitions never
    read wall time of their own.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    def __init__(self, threshold: int, reset_timeout_s: float, clock):
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        if reset_timeout_s <= 0:
            raise ValueError("reset_timeout_s must be positive")
        self.threshold = int(threshold)
        self.reset_timeout_s = float(reset_timeout_s)
        self._clock = clock
        self.state = self.CLOSED
        self.failures = 0
        self._opened_at = 0.0
        self._probing = False
        # lifetime accounting of this one breaker (the cluster-wide
        # totals are telemetry counts that outlive it)
        self.opens = 0
        self.closes = 0
        self.fast_fails = 0

    def allow(self) -> bool:
        """May a request be sent now?  (Counts the refusals it issues.)"""
        if self.state == self.CLOSED:
            return True
        if self.state == self.OPEN:
            if self._clock() - self._opened_at >= self.reset_timeout_s:
                self.state = self.HALF_OPEN
                self._probing = False
            else:
                self.fast_fails += 1
                return False
        # half-open: exactly one in-flight probe at a time
        if self._probing:
            self.fast_fails += 1
            return False
        self._probing = True
        return True

    def record_success(self) -> bool:
        """Account one success; True when this call *closed* the circuit."""
        self.failures = 0
        self._probing = False
        if self.state == self.CLOSED:
            return False
        self.state = self.CLOSED
        self.closes += 1
        return True

    def record_failure(self) -> bool:
        """Account one failure; True when this call *opened* the circuit."""
        self._probing = False
        if self.state == self.HALF_OPEN:
            # failed probe: straight back to open for a fresh window
            self.state = self.OPEN
            self._opened_at = self._clock()
            self.opens += 1
            return True
        self.failures += 1
        if self.state == self.CLOSED and self.failures >= self.threshold:
            self.state = self.OPEN
            self._opened_at = self._clock()
            self.opens += 1
            return True
        return False

    def retry_after_s(self) -> float:
        """Seconds until the next half-open probe is admitted (0 if now)."""
        if self.state != self.OPEN:
            return 0.0
        return max(0.0, self.reset_timeout_s - (self._clock() - self._opened_at))


#: seconds between two sweeps of a non-empty :class:`DeadlineTable`: how
#: late a deadline may fire, and the only timer rate a process pays
DEADLINE_TICK_S = 0.010


class DeadlineTable:
    """Request deadlines of one process: a table entry each, one timer.

    ``add(future, deadline)`` records an absolute deadline on the
    injected ``clock``; ``discard(future)`` forgets it.  While the
    table is non-empty exactly one ``call_later`` timer is armed, and
    every :data:`DEADLINE_TICK_S` its sweep fails each still-pending
    future whose deadline has passed with :class:`TimeoutError` -- so a
    deadline never fires early and fires at most one tick late, and a
    request costs two dict operations instead of a timer of its own.
    The sweep that finds the table empty does not re-arm; the next
    ``add`` does.  A future is anything with ``done()`` and
    ``set_exception()``; one completed before its deadline is dropped
    untouched.  ``call_later(delay, callback)`` must return a handle
    with ``cancel()`` (an event loop's own ``call_later`` does).
    """

    __slots__ = ("_clock", "_call_later", "_deadlines", "_timer")

    def __init__(self, clock, call_later):
        self._clock = clock
        self._call_later = call_later
        #: future -> absolute deadline on ``clock``
        self._deadlines: dict = {}
        self._timer = None

    def __len__(self) -> int:
        return len(self._deadlines)

    def add(self, future, deadline: float) -> None:
        self._deadlines[future] = deadline
        if self._timer is None:
            self._timer = self._call_later(DEADLINE_TICK_S, self._sweep)

    def discard(self, future) -> None:
        self._deadlines.pop(future, None)

    def clear(self) -> None:
        """Forget every deadline and cancel the timer (owner shutdown)."""
        self._deadlines.clear()
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _sweep(self) -> None:
        self._timer = None
        deadlines = self._deadlines
        now = self._clock()
        for future in [f for f, due in deadlines.items() if due <= now]:
            del deadlines[future]
            if not future.done():
                future.set_exception(TimeoutError())
        if deadlines:
            self._timer = self._call_later(DEADLINE_TICK_S, self._sweep)


def measure_vector_reliably(
    network, landmarks, host: int, policy: RetryPolicy = None
) -> np.ndarray:
    """Measure a landmark vector under faults, re-probing lost entries.

    Entries still missing after the policy's attempts are filled with
    the worst successfully measured RTT -- a pessimistic estimate that
    keeps the joiner operational (graceful degradation) instead of
    stalling the join.  Raises :class:`ProbeTimeout` only if every
    landmark stayed silent through every attempt.
    """
    if policy is None:
        policy = RetryPolicy()
    hosts = np.asarray(landmarks.hosts, dtype=np.int64)
    vector = network.rtt_many(int(host), hosts, category="landmark_probe")
    for attempt in range(policy.max_attempts - 1):
        missing = np.isnan(vector)
        if not missing.any():
            break
        policy.sleep(attempt, clock=network.clock, telemetry=network.telemetry)
        vector[missing] = network.rtt_many(
            int(host), hosts[missing], category="landmark_probe"
        )
    missing = np.isnan(vector)
    if missing.all():
        raise ProbeTimeout(int(host), int(hosts[0]), reason="all landmarks silent")
    if missing.any():
        vector[missing] = float(np.nanmax(vector))
    return vector

