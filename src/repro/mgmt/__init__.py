"""Management plane: controller daemon, HTTP stats/health API, live viz.

The operational surface of the overlay (DESIGN.md §14).  A
:class:`~repro.mgmt.controller.Controller` attaches to a running
:class:`~repro.runtime.cluster.Cluster` or
:class:`~repro.runtime.shard.ShardedCluster` and serves, over a
stdlib asyncio HTTP server on the same event loop:

* ``/topology`` -- the CAN tessellation, expressway links and shard
  assignment as versioned, deterministic JSON;
* ``/stats`` -- aggregated telemetry / transport / overload counters;
* ``/metrics`` -- the same numbers as Prometheus text exposition;
* ``/health`` -- per-node SWIM verdicts, circuit-breaker states and
  the stack-wide invariant check, status-coded 200/503/500 for
  healthy/degraded/unhealthy;
* ``/`` -- a self-contained live zone-map view of the tessellation
  with per-zone load shading and expressway chords.

Boot one from the CLI with ``repro controller`` (or add
``--status-port`` to ``repro cluster``); CI gates it with the
``mgmt`` scenario of ``scripts/smoke.py`` (``make smoke``).
"""

from repro.mgmt.controller import Controller, ControllerConfig
from repro.mgmt.prometheus import (
    MetricFamily,
    counter_samples,
    escape_label_value,
    parse_exposition,
    render_exposition,
    render_prometheus,
    stats_families,
)
from repro.mgmt.server import HttpServer, Request, Response, http_get
from repro.mgmt.snapshots import (
    HEALTH_STATUS_CODES,
    health_snapshot,
    stats_snapshot,
    topology_snapshot,
)
from repro.mgmt.viz import render_zone_map_html

__all__ = [
    "Controller",
    "ControllerConfig",
    "HEALTH_STATUS_CODES",
    "HttpServer",
    "MetricFamily",
    "Request",
    "Response",
    "counter_samples",
    "escape_label_value",
    "health_snapshot",
    "http_get",
    "parse_exposition",
    "render_exposition",
    "render_prometheus",
    "render_zone_map_html",
    "stats_families",
    "stats_snapshot",
    "topology_snapshot",
]
