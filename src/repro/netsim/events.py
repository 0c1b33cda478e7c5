"""A minimal discrete-event scheduler.

Soft-state expiry, periodic map polling, publish/subscribe
notification and churn traces all need a shared notion of simulated
time.  The scheduler is deliberately tiny: a heap of ``(time, seq,
callback)`` entries and a clock.  Callbacks may schedule further
events; cancelled events are dropped lazily.
"""

from __future__ import annotations

import heapq
import itertools
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass(order=True)
class _Event:
    time: float
    seq: int
    callback: object = field(compare=False)
    cancelled: bool = field(default=False, compare=False)


class EventHandle:
    """Handle returned by :meth:`EventScheduler.schedule`; supports cancel."""

    def __init__(self, event: _Event):
        self._event = event

    def cancel(self) -> None:
        """Prevent the event's callback from running."""
        self._event.cancelled = True

    @property
    def time(self) -> float:
        return self._event.time

    @property
    def cancelled(self) -> bool:
        return self._event.cancelled


class EventScheduler:
    """Heap-based simulated clock."""

    def __init__(self):
        self._heap: list = []
        self._seq = itertools.count()
        self.now = 0.0
        self._frozen = 0

    def schedule(self, delay: float, callback) -> EventHandle:
        """Run ``callback()`` after ``delay`` simulated time units."""
        if delay < 0:
            raise ValueError("delay must be non-negative")
        event = _Event(self.now + delay, next(self._seq), callback)
        heapq.heappush(self._heap, event)
        return EventHandle(event)

    def schedule_at(self, time: float, callback) -> EventHandle:
        """Run ``callback()`` at absolute simulated ``time``."""
        return self.schedule(max(0.0, time - self.now), callback)

    def schedule_every(self, interval: float, callback) -> EventHandle:
        """Run ``callback()`` every ``interval`` units until cancelled.

        Returns the handle of the *first* firing; cancellation is
        checked before each repeat, so cancelling the returned handle
        stops the whole series.
        """
        if interval <= 0:
            raise ValueError("interval must be positive")
        event = _Event(self.now + interval, next(self._seq), None)

        def fire():
            if event.cancelled:
                return
            callback()
            if not event.cancelled:
                event.time = self.now + interval
                event.seq = next(self._seq)
                heapq.heappush(self._heap, event)

        event.callback = fire
        heapq.heappush(self._heap, event)
        return EventHandle(event)

    def advance(self, duration: float) -> None:
        """Move the clock forward *without* executing queued callbacks.

        Used for in-line waits (retry backoff, probe timeouts) that
        happen inside an event callback, where re-entering
        :meth:`run_until` would drain unrelated events early.  Events
        the clock skips over still run at the next ``run_*`` call
        (their observed time never goes backwards).
        """
        if duration < 0:
            raise ValueError("duration must be non-negative")
        if not self._frozen:
            self.now += duration

    @contextmanager
    def frozen(self):
        """Hold the clock still across in-line :meth:`advance` calls.

        :meth:`advance` models *one* actor's in-line wait.  A burst in
        which many nodes act concurrently (every survivor repairing
        after a confirmed crash, a whole detector round of parallel
        pings) must not stack each actor's private backoff serially
        onto the shared clock -- that would inflate simulated time by
        the number of actors and starve every other timer.  Inside
        this context ``advance()`` is a no-op on ``now`` (waits stay
        visible through the retry/telemetry accounting); the caller's
        own schedule bounds the burst's duration.
        """
        self._frozen += 1
        try:
            yield
        finally:
            self._frozen -= 1

    def pending(self) -> int:
        """Number of queued (possibly cancelled) events."""
        return len(self._heap)

    def run_until(self, time: float) -> int:
        """Execute all events scheduled at or before ``time``.

        Advances the clock to ``time`` and returns the number of
        callbacks executed.
        """
        executed = 0
        while self._heap and self._heap[0].time <= time:
            event = heapq.heappop(self._heap)
            if event.cancelled:
                continue
            # max(): an in-callback advance() may already have moved the
            # clock past this event's scheduled time
            self.now = max(self.now, event.time)
            event.callback()
            executed += 1
        self.now = max(self.now, time)
        return executed
