"""The topology-aware overlay: the paper's system, assembled.

:class:`repro.core.builder.TopologyAwareOverlay` wires together the
physical network, the landmark machinery, the eCAN and the global
soft-state into the system the paper evaluates; `core.churn` drives
membership dynamics over it, and `core.qos` adds the §6 load-aware
extension.
"""

from repro.core.builder import TopologyAwareOverlay
from repro.core.churn import ChurnDriver, ChurnEvent, poisson_churn
from repro.core.config import NetworkParams, OverlayParams, make_network
from repro.core.metrics import summarize
from repro.core.qos import LoadTracker, pareto_capacities
from repro.core.recovery import (
    DetectorParams,
    FailureDetector,
    RecoveryManager,
    SwimCore,
    check_invariants,
)
from repro.core.reliability import NO_RETRY, RetryPolicy, measure_vector_reliably
from repro.core.stats import bootstrap_ci
from repro.core.telemetry import Telemetry

__all__ = [
    "ChurnDriver",
    "ChurnEvent",
    "DetectorParams",
    "FailureDetector",
    "LoadTracker",
    "NO_RETRY",
    "NetworkParams",
    "OverlayParams",
    "RecoveryManager",
    "RetryPolicy",
    "SwimCore",
    "Telemetry",
    "TopologyAwareOverlay",
    "bootstrap_ci",
    "check_invariants",
    "make_network",
    "measure_vector_reliably",
    "pareto_capacities",
    "poisson_churn",
    "summarize",
]
