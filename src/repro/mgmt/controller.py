"""The controller daemon: own a running cluster, serve the management API.

Modeled on the ipop-project controller split (BaseTopologyManager's
control loop + OverlayVisualizer's periodic topology/stats push +
Watchdog's per-node health): a :class:`Controller` attaches to a
running :class:`~repro.runtime.cluster.Cluster` or
:class:`~repro.runtime.shard.ShardedCluster` on the same event loop
and serves:

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

Every document is computed when it is requested, so a probe observes
a crash on the very next scrape, and the ``/stats`` and ``/health``
halves of one ``/metrics`` scrape read the same instant.
"""

from __future__ import annotations

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

    def __post_init__(self):
        if not 0 <= self.port <= 65535:
            raise ValueError(f"port must be within 0..65535, got {self.port}")


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
        """Bind the listener (idempotent)."""
        await self.server.start()
        return self

    async def stop(self) -> None:
        await self.server.close()

    async def __aenter__(self) -> "Controller":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # -- the served documents ----------------------------------------------

    async def topology(self) -> dict:
        """The current ``/topology`` document."""
        return topology_snapshot(self.cluster)

    async def stats(self) -> dict:
        """The current ``/stats`` document."""
        return await stats_snapshot(self.cluster)

    async def health(self) -> dict:
        """The current ``/health`` document."""
        return health_snapshot(self.cluster)

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
