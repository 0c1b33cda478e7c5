"""Observability: counters, gauges, phase timers and trace events.

Every :class:`~repro.netsim.network.Network` owns one
:class:`Telemetry` instance (``network.telemetry``) through which the
instrumented layers report what they are doing:

* **counters** -- monotonically increasing totals (e.g. backoff
  milliseconds charged by retry policies);
* **gauges** -- last-written values (e.g. live overlay size);
* **event counts** -- one counter per structured event kind.  The
  layers emit ``probe`` (netsim), ``hop`` / ``retry`` (eCAN routing
  and every :class:`~repro.core.reliability.RetryPolicy` backoff),
  ``purge`` (soft-state maintenance), ``publish`` (soft-state store),
  ``fault`` (the injector) and ``degraded`` (hybrid search fallback);
* **phase timers** -- :meth:`Telemetry.phase` context managers that
  accumulate *simulated* milliseconds (from the event scheduler, so
  resilience numbers stay deterministic) alongside wall seconds;
* **trace events** -- when :attr:`Telemetry.tracing` is enabled, each
  emit also appends a full :class:`TraceEvent` (kind, sim time,
  fields) to a bounded buffer for post-hoc inspection.

Everything is JSON-serialisable (:meth:`Telemetry.snapshot` /
:meth:`Telemetry.to_json` / :meth:`Telemetry.from_json`).  All
deterministic fields survive a JSON round trip byte-identically;
wall-clock parts live under keys prefixed ``wall``.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass(frozen=True)
class TraceEvent:
    """One structured occurrence: kind, simulated time, free-form fields."""

    kind: str
    time: float
    fields: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "time": self.time, "fields": dict(self.fields)}

    @classmethod
    def from_dict(cls, data: dict) -> "TraceEvent":
        return cls(
            kind=data["kind"],
            time=float(data["time"]),
            fields=dict(data.get("fields", {})),
        )


class Telemetry:
    """Sim-clock-aware counters, gauges, phase timers and trace events.

    ``clock`` is any object with a ``now`` attribute (the network's
    :class:`~repro.netsim.events.EventScheduler`); without one, event
    and phase times fall back to 0 so the class stays usable in unit
    tests and offline analysis.
    """

    def __init__(self, clock=None, trace_limit: int = 10_000, tracing: bool = False):
        self.clock = clock
        self.trace_limit = trace_limit
        #: record full TraceEvents (bounded by ``trace_limit``)?  Event
        #: *counts* are always kept; tracing is opt-in to keep the
        #: probe/hop hot paths cheap.
        self.tracing = tracing
        self.counters = Counter()
        self.gauges: dict = {}
        self.event_counts = Counter()
        self.events: list = []
        self.dropped_events = 0
        self.phases: dict = {}

    # -- primitive instruments ---------------------------------------------

    def _now(self) -> float:
        return self.clock.now if self.clock is not None else 0.0

    def count(self, name: str, n: float = 1) -> None:
        """Add ``n`` to counter ``name`` (floats allowed, e.g. milliseconds)."""
        self.counters[name] += n

    def gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value`` (last write wins)."""
        self.gauges[name] = value

    def bump(self, kind: str, n: int = 1) -> None:
        """Count ``n`` occurrences of event ``kind``; never traces.

        The counter-only fast path for per-probe/per-hop call sites:
        equivalent to :meth:`emit` with no fields when tracing is off,
        and cheaper because no keyword dict is built.
        """
        self.event_counts[kind] += n

    def emit(self, kind: str, n: int = 1, **fields) -> None:
        """Record ``n`` occurrences of event ``kind``.

        With :attr:`tracing` enabled one full :class:`TraceEvent` is
        appended (regardless of ``n``) until the buffer is full;
        overflow is tallied in :attr:`dropped_events`.
        """
        self.event_counts[kind] += n
        if self.tracing:
            if len(self.events) < self.trace_limit:
                self.events.append(TraceEvent(kind, self._now(), fields))
            else:
                self.dropped_events += 1

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

        Key order is *stable*: counters, gauges, event counts and
        phase accumulators are emitted sorted by name rather than in
        insertion order, so two runs that record the same values in a
        different order produce byte-identical exports -- the property
        the Prometheus ``/metrics`` exposition and the bench JSON
        trajectory rely on.
        """
        return {
            "counters": {name: self.counters[name] for name in sorted(self.counters)},
            "gauges": {name: self.gauges[name] for name in sorted(self.gauges)},
            "events": {
                name: self.event_counts[name] for name in sorted(self.event_counts)
            },
            "phases": {
                name: dict(self.phases[name]) for name in sorted(self.phases)
            },
            "trace": [event.to_dict() for event in self.events],
            "dropped_events": self.dropped_events,
        }

    def to_json(self, indent: int = None) -> str:
        return json.dumps(self.snapshot(), sort_keys=True, indent=indent)

    @classmethod
    def from_json(cls, text: str, clock=None) -> "Telemetry":
        """Rebuild a :class:`Telemetry` from :meth:`to_json` output."""
        data = json.loads(text)
        telemetry = cls(clock=clock)
        telemetry.counters.update(data.get("counters", {}))
        telemetry.gauges.update(data.get("gauges", {}))
        telemetry.event_counts.update(data.get("events", {}))
        telemetry.events = [
            TraceEvent.from_dict(event) for event in data.get("trace", ())
        ]
        telemetry.dropped_events = int(data.get("dropped_events", 0))
        telemetry.phases = {
            name: dict(acc) for name, acc in data.get("phases", {}).items()
        }
        return telemetry

    def __repr__(self):
        return (
            f"Telemetry(events={dict(self.event_counts)!r}, "
            f"phases={sorted(self.phases)})"
        )
