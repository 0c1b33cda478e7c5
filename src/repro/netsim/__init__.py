"""Simulated physical network substrate.

This package replaces the paper's GT-ITM topologies and live RTT
measurements with an in-process equivalent:

* :mod:`repro.netsim.transit_stub` -- a seedable transit-stub topology
  generator with the same structural knobs GT-ITM exposes (transit
  domains, transit nodes per domain, stub domains per transit node,
  nodes per stub domain, extra cross links).
* :mod:`repro.netsim.latency` -- link latency models: planar
  distance-derived weights (GT-ITM's default behaviour), the paper's
  manual class-based latencies, and a noise wrapper that can violate
  the triangle inequality.
* :mod:`repro.netsim.distance` -- a cached shortest-path distance
  oracle built on scipy's sparse Dijkstra.
* :mod:`repro.netsim.network` -- the :class:`Network` facade used by
  every higher layer: RTT probing (with message accounting), host
  sampling and an event clock.
* :mod:`repro.netsim.events` -- a tiny discrete-event scheduler used
  for soft-state expiry, publish/subscribe and churn experiments.
* :mod:`repro.netsim.faults` -- deterministic fault injection (probe
  and message loss, transit-domain partitions, crash-stop failures)
  armed via :meth:`Network.arm_faults`.
"""

from repro.netsim.distance import DistanceOracle
from repro.netsim.events import EventScheduler
from repro.netsim.faults import (
    FAULT_CATEGORIES,
    FaultInjector,
    FaultPlan,
    Partition,
    ProbeTimeout,
)
from repro.netsim.latency import (
    GeneratedLatencyModel,
    LatencyModel,
    ManualLatencyModel,
    NoisyLatencyModel,
    latency_model_from_name,
)
from repro.netsim.network import MessageStats, Network
from repro.netsim.transit_stub import (
    LinkClass,
    NodeKind,
    Topology,
    TransitStubConfig,
    generate_transit_stub,
)

__all__ = [
    "DistanceOracle",
    "EventScheduler",
    "FAULT_CATEGORIES",
    "FaultInjector",
    "FaultPlan",
    "GeneratedLatencyModel",
    "LatencyModel",
    "LinkClass",
    "ManualLatencyModel",
    "MessageStats",
    "Network",
    "NodeKind",
    "NoisyLatencyModel",
    "Partition",
    "ProbeTimeout",
    "Topology",
    "TransitStubConfig",
    "generate_transit_stub",
    "latency_model_from_name",
]
