"""Parameter dataclasses mirroring the paper's Table 2.

The OCR of the paper stripped the digits out of Table 2; the defaults
below are the reconstruction documented in DESIGN.md: 4096 overlay
nodes, 15 landmarks (swept 5-30), 10 RTT probes (swept 1-40), and a
1/16 map condense rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.netsim import Network, TransitStubConfig, generate_transit_stub
from repro.netsim.latency import latency_model_from_name

#: neighbor-selection policies understood by the builder
POLICIES = ("random", "softstate", "optimal")


@dataclass(frozen=True)
class NetworkParams:
    """Which physical network to simulate."""

    topology: str = "tsk-large"  # "tsk-large" | "tsk-small"
    latency: str = "manual"  # "generated" | "manual" | "noisy-*"
    topo_scale: float = 1.0
    seed: int = 0


@dataclass(frozen=True)
class OverlayParams:
    """Overlay + soft-state knobs (Table 2)."""

    num_nodes: int = 4096
    landmarks: int = 15
    rtt_budget: int = 10
    condense_rate: float = 1.0 / 16.0
    record_ttl: float = math.inf
    #: map copies per record (1 = primary only; >1 arms crash durability)
    replication_factor: int = 1
    policy: str = "softstate"
    load_weight: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}, got {self.policy!r}")
        if self.num_nodes < 1:
            raise ValueError("num_nodes must be positive")
        if self.rtt_budget < 1:
            raise ValueError("rtt_budget must be >= 1")
        if self.replication_factor < 1:
            raise ValueError("replication_factor must be >= 1")


def topology_config(name: str, scale: float = 1.0) -> TransitStubConfig:
    """Named topology presets from the paper's evaluation."""
    if name == "tsk-large":
        return TransitStubConfig.tsk_large(scale)
    if name == "tsk-small":
        return TransitStubConfig.tsk_small(scale)
    raise ValueError(f"unknown topology {name!r} (want 'tsk-large' or 'tsk-small')")


def make_network(params: NetworkParams) -> Network:
    """Build the simulated physical network described by ``params``."""
    config = topology_config(params.topology, params.topo_scale)
    topology = generate_transit_stub(config, seed=params.seed, name=params.topology)
    model = latency_model_from_name(params.latency, seed=params.seed)
    return Network(topology, model)
