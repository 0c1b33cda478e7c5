"""The controller daemon: own a running cluster, serve the management API.

Modeled on the ipop-project controller split (BaseTopologyManager's
control loop + OverlayVisualizer's periodic topology/stats push +
Watchdog's per-node health): a :class:`Controller` attaches to a
running :class:`~repro.runtime.cluster.Cluster` or
:class:`~repro.runtime.shard.ShardedCluster`, runs a refresh loop on
the same event loop, and serves:

* ``GET /topology`` -- zones, members, expressway links and shard
  assignment as versioned JSON
  (:func:`~repro.mgmt.snapshots.topology_snapshot`);
* ``GET /stats`` -- aggregated telemetry/transport/overload counters
  (:func:`~repro.mgmt.snapshots.stats_snapshot`);
* ``GET /metrics`` -- the same numbers as Prometheus text exposition
  (:func:`~repro.mgmt.prometheus.render_prometheus`);
* ``GET /health`` -- per-node SWIM verdicts, breaker states and the
  stack-wide invariant check, with the HTTP status mapped from the
  overall verdict (200 healthy, 503 degraded, 500 unhealthy);
* ``GET /`` -- the self-contained live zone-map view
  (:mod:`repro.mgmt.viz`).

``/topology`` and ``/stats`` are cached for one refresh period (the
refresh loop re-warms them); ``/health`` is always computed fresh, so
a probe observes a crash on the very next scrape.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass

from repro.mgmt.prometheus import render_prometheus
from repro.mgmt.server import HttpServer, Response
from repro.mgmt.snapshots import (
    HEALTH_STATUS_CODES,
    health_snapshot,
    stats_snapshot,
    topology_snapshot,
)
from repro.mgmt.viz import render_zone_map_html


@dataclass
class ControllerConfig:
    """Knobs of the management daemon."""

    #: listen interface (keep it loopback unless you mean it)
    host: str = "127.0.0.1"
    #: listen port; 0 picks a free one (read it back off ``.port``)
    port: int = 0
    #: refresh-loop period and the /topology + /stats cache lifetime,
    #: wall seconds
    refresh_s: float = 0.5
    #: run the (O(N) and worse) stack-wide invariant check on /health;
    #: disable on very large clusters where the scrape budget matters
    check_invariants: bool = True

    def __post_init__(self):
        if self.refresh_s <= 0:
            raise ValueError("refresh_s must be positive")


class Controller:
    """HTTP management plane over one running cluster harness."""

    def __init__(self, cluster, config: ControllerConfig = None):
        self.cluster = cluster
        self.config = config if config is not None else ControllerConfig()
        self.server = HttpServer(
            {
                "/": self._serve_index,
                "/topology": self._serve_topology,
                "/stats": self._serve_stats,
                "/metrics": self._serve_metrics,
                "/health": self._serve_health,
            },
            host=self.config.host,
            port=self.config.port,
        )
        #: refresh-loop passes completed so far
        self.refreshes = 0
        self._cache: dict = {}
        self._task = None

    # -- lifecycle ---------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound listen port (after :meth:`start`)."""
        return self.server.port

    @property
    def url(self) -> str:
        """Base URL of the running daemon."""
        return self.server.url

    async def start(self) -> "Controller":
        """Bind the listener and arm the refresh loop (idempotent)."""
        await self.server.start()
        if self._task is None:
            self._task = asyncio.get_running_loop().create_task(self._run())
        return self

    async def stop(self) -> None:
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None
        await self.server.close()

    async def __aenter__(self) -> "Controller":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    async def _run(self) -> None:
        """The control loop: keep the served snapshots warm."""
        while True:
            try:
                await self.topology()
                await self.stats()
                self.refreshes += 1
                self.cluster.network.telemetry.gauge(
                    "mgmt_refreshes", self.refreshes
                )
            except Exception:
                # a torn mid-churn read must not kill the daemon; the
                # next pass (or an on-demand request) recomputes, and
                # the count shows on /stats and /metrics
                self.cluster.network.telemetry.count("mgmt_refresh_error")
            await asyncio.sleep(self.config.refresh_s)

    # -- snapshot access (cached) ------------------------------------------

    def _cached(self, key: str):
        entry = self._cache.get(key)
        if entry is None:
            return None
        stamp, value = entry
        if time.monotonic() - stamp > self.config.refresh_s:
            return None
        return value

    def _store(self, key: str, value):
        self._cache[key] = (time.monotonic(), value)
        return value

    async def topology(self) -> dict:
        """The current ``/topology`` document (refresh-period cache)."""
        cached = self._cached("topology")
        if cached is None:
            cached = self._store("topology", topology_snapshot(self.cluster))
        return cached

    async def stats(self) -> dict:
        """The current ``/stats`` document (refresh-period cache)."""
        cached = self._cached("stats")
        if cached is None:
            cached = self._store("stats", await stats_snapshot(self.cluster))
        return cached

    async def health(self) -> dict:
        """The current ``/health`` document (never cached)."""
        return health_snapshot(
            self.cluster, run_invariants=self.config.check_invariants
        )

    # -- route handlers ----------------------------------------------------

    async def _serve_index(self, _request) -> Response:
        self.cluster.network.telemetry.count("mgmt_http_index")
        return Response.html(render_zone_map_html())

    async def _serve_topology(self, _request) -> Response:
        self.cluster.network.telemetry.count("mgmt_http_topology")
        return Response.json(await self.topology())

    async def _serve_stats(self, _request) -> Response:
        self.cluster.network.telemetry.count("mgmt_http_stats")
        return Response.json(await self.stats())

    async def _serve_metrics(self, _request) -> Response:
        self.cluster.network.telemetry.count("mgmt_http_metrics")
        stats = await self.stats()
        health = await self.health()
        return Response.text(render_prometheus(stats, health))

    async def _serve_health(self, _request) -> Response:
        self.cluster.network.telemetry.count("mgmt_http_health")
        health = await self.health()
        return Response.json(
            health, status=HEALTH_STATUS_CODES[health["status"]]
        )
