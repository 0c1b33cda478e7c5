"""Churn: membership dynamics over the topology-aware overlay.

The paper motivates soft-state maintenance with "as nodes join
(depart) or network conditions flux, existing routing tables need to
be repaired".  This driver replays join/leave traces against a
:class:`~repro.core.builder.TopologyAwareOverlay`, advancing the
simulated clock so lease expiry and periodic polling fire, and
samples routing stretch plus message counters along the way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ChurnEvent:
    """One membership change at a simulated time."""

    time: float
    kind: str  # "join" | "leave"

    def __post_init__(self):
        if self.kind not in ("join", "leave"):
            raise ValueError(f"unknown churn event kind {self.kind!r}")


def poisson_churn(
    rng: np.random.Generator,
    duration: float,
    join_rate: float,
    leave_rate: float,
) -> list:
    """Independent Poisson join and leave processes over ``duration``."""
    events = []
    for rate, kind in ((join_rate, "join"), (leave_rate, "leave")):
        if rate <= 0:
            continue
        t = 0.0
        while True:
            t += float(rng.exponential(1.0 / rate))
            if t >= duration:
                break
            events.append(ChurnEvent(time=t, kind=kind))
    events.sort(key=lambda e: (e.time, e.kind))
    return events


class ChurnDriver:
    """Replay churn events and sample overlay health."""

    def __init__(
        self,
        overlay,
        rng: np.random.Generator = None,
        graceful_fraction: float = 1.0,
        min_nodes: int = 8,
    ):
        self.overlay = overlay
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.graceful_fraction = graceful_fraction
        self.min_nodes = min_nodes
        self.applied = 0
        self.skipped = 0
        self._epoch = None

    def apply(self, event: ChurnEvent) -> bool:
        """Apply one event; returns False when it had to be skipped.

        Event times are relative to the clock's time at first use, so
        traces replay correctly even on a clock another experiment
        already advanced.
        """
        clock = self.overlay.network.clock
        if self._epoch is None:
            self._epoch = clock.now
        target = self._epoch + event.time
        if target > clock.now:
            clock.run_until(target)
        if event.kind == "join":
            self.overlay.add_node()
        else:
            if len(self.overlay) <= self.min_nodes:
                self.skipped += 1
                return False
            victim = self.overlay.random_member()
            graceful = bool(self.rng.random() < self.graceful_fraction)
            self.overlay.remove_node(victim, graceful=graceful)
        self.applied += 1
        return True

    def run(
        self,
        events,
        measure_every: int = 0,
        stretch_samples: int = 64,
    ) -> list:
        """Replay ``events``; optionally sample stretch every N events.

        Returns timeline rows: ``{"time", "nodes", "mean_stretch",
        "messages", "stale_entries"}`` -- one row per measurement
        point (plus a final row).
        """
        rows = []
        stats = self.overlay.network.stats
        if self._epoch is None:
            self._epoch = self.overlay.network.clock.now

        def sample(time: float) -> None:
            before = stats.snapshot()
            stretch = self.overlay.measure_stretch(stretch_samples, rng=self.rng)
            # measurement traffic should not pollute the churn accounting
            measured = stats.delta(before)
            for key, value in measured.items():
                stats.count(key, -value)
            rows.append(
                {
                    "time": time,
                    "nodes": len(self.overlay),
                    "mean_stretch": float(stretch.mean()) if stretch.size else None,
                    "messages": stats.total(),
                    "stale_entries": self.overlay.maintenance.stale_entries(),
                }
            )

        for i, event in enumerate(events):
            self.apply(event)
            if measure_every and (i + 1) % measure_every == 0:
                sample(event.time)
        final_time = events[-1].time if events else self.overlay.network.clock.now
        sample(final_time)
        return rows
