"""Observability: one counter map, gauges and phase timers.

Every :class:`~repro.netsim.network.Network` owns one
:class:`Telemetry` instance (``network.telemetry``) through which the
instrumented layers report what they are doing:

* **events** -- one monotonically increasing total per name, all
  behind :meth:`Telemetry.count` (occurrences by default; a float for
  the one name that carries a unit, ``backoff_ms``).  DESIGN.md
  section 7 tabulates every name, who counts it and its unit, and a
  tier-1 lint keeps that table equal to the ``count()`` call sites;
* **gauges** -- last-written values (e.g. live overlay size);
* **phase timers** -- :meth:`Telemetry.phase` context managers that
  accumulate *simulated* milliseconds (from the event scheduler, so
  resilience numbers stay deterministic) alongside wall seconds.

:meth:`Telemetry.snapshot` is JSON-serialisable with sorted keys;
wall-clock parts live under keys prefixed ``wall``.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager


class Telemetry:
    """Sim-clock-aware event counts, gauges and phase timers.

    ``clock`` is any object with a ``now`` attribute (the network's
    :class:`~repro.netsim.events.EventScheduler`); without one, phase
    times fall back to 0 so the class stays usable in unit tests and
    offline analysis.
    """

    def __init__(self, clock=None):
        self.clock = clock
        self.events = Counter()
        self.gauges: dict = {}
        self.phases: dict = {}

    # -- primitive instruments ---------------------------------------------

    def _now(self) -> float:
        return self.clock.now if self.clock is not None else 0.0

    def count(self, name: str, n: float = 1) -> None:
        """Add ``n`` to event ``name`` (floats allowed, e.g. milliseconds)."""
        self.events[name] += n

    def gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value`` (last write wins)."""
        self.gauges[name] = value

    # -- phase timers ------------------------------------------------------

    @contextmanager
    def phase(self, name: str):
        """Time a phase in simulated ms *and* wall seconds.

        Re-entering the same name accumulates; distinct names nest
        freely.  The simulated duration is whatever the clock advanced
        during the block -- event-scheduler runs, retry backoff and
        probe waits all land in the enclosing phase.
        """
        sim_start = self._now()
        wall_start = time.perf_counter()
        try:
            yield self
        finally:
            acc = self.phases.setdefault(
                name, {"sim_ms": 0.0, "entries": 0, "wall_s": 0.0}
            )
            acc["sim_ms"] += self._now() - sim_start
            acc["wall_s"] += time.perf_counter() - wall_start
            acc["entries"] += 1

    # -- serialisation -----------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-serialisable copy of everything recorded so far.

        Key order is *stable*: event counts, gauges and phase
        accumulators are emitted sorted by name rather than in
        insertion order, so two runs that record the same values in a
        different order produce byte-identical exports -- the property
        the Prometheus ``/metrics`` exposition relies on.
        """
        return {
            "events": {name: self.events[name] for name in sorted(self.events)},
            "gauges": {name: self.gauges[name] for name in sorted(self.gauges)},
            "phases": {
                name: dict(self.phases[name]) for name in sorted(self.phases)
            },
        }

    def __repr__(self):
        return (
            f"Telemetry(events={dict(self.events)!r}, "
            f"phases={sorted(self.phases)})"
        )
