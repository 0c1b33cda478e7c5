"""Live asyncio execution layer.

Everything below :mod:`repro.core` runs under a single-threaded
simulated clock; this package runs the same overlay stack *live*:
each member is an independent async actor behind a mailbox
(:class:`~repro.runtime.node.NodeProcess`), actors exchange a
versioned, length-prefixed binary wire protocol
(:mod:`repro.runtime.wire`) over a pluggable transport
(:mod:`repro.runtime.transport` -- in-process loopback or real TCP),
and a :class:`~repro.runtime.cluster.Cluster` harness boots N nodes,
performs topology-aware joins over the wire and serves async
``route`` / ``publish`` / ``lookup`` RPCs.  The open-loop load driver
(:mod:`repro.runtime.loadgen`) replays generated workloads at a
configured arrival rate and reports latency percentiles.

Live runs are cross-validated against the synchronous simulator: the
same (config, seed) must produce identical lookup owners and route
endpoints (:meth:`Cluster.verify_against_sim`).

Self-healing runs live too: :class:`~repro.runtime.recovery.RuntimeRecovery`
drives a SWIM-style failure detector over HEARTBEAT frames (direct
probes, witness relays, partition shielding) and reuses the
simulator's :class:`~repro.core.recovery.RecoveryManager` for zone
takeover and replica re-hosting when a death is confirmed.

The runtime scales past one core by sharding (DESIGN.md §13): a
:class:`~repro.runtime.shard.ShardedCluster` partitions the
membership across worker processes grouped by transit domain, each
worker running its own event loop over a deterministic
:class:`~repro.runtime.cluster.RoutingView` replica, with cross-shard
frames riding per-shard TCP peering sockets and the identical
sim-parity bar enforced end to end.

The runtime degrades gracefully under overload (DESIGN.md §12): each
actor's mailbox is two lanes -- control traffic is never shed, data
traffic is capped and sheds with a BUSY wire frame -- and request
origins react with jittered BUSY retries and the origin's circuit
breaker (:exc:`~repro.runtime.node.PeerBusy`,
:class:`~repro.core.reliability.CircuitBreaker`).
"""

from repro.core.reliability import CircuitOpenError
from repro.runtime.cluster import (
    Cluster,
    ClusterConfig,
    ClusterSurface,
    RoutingView,
    make_cluster,
)
from repro.runtime.loadgen import LoadReport, latency_percentiles, run_load
from repro.runtime.node import NodeProcess, PeerBusy, RemoteError, RequestTimeout
from repro.runtime.recovery import RuntimeRecovery
from repro.runtime.shard import (
    NotSupportedError,
    PeeringTransport,
    ShardCrashed,
    ShardedCluster,
    ShardError,
    shard_assignment,
)
from repro.runtime.transport import (
    LoopbackTransport,
    TcpTransport,
    Transport,
    TransportError,
    make_transport,
)
from repro.runtime.wire import (
    Frame,
    FrameDecoder,
    MsgType,
    ProtocolError,
    decode_frame,
    encode_frame,
)

__all__ = [
    "CircuitOpenError",
    "Cluster",
    "ClusterConfig",
    "ClusterSurface",
    "Frame",
    "FrameDecoder",
    "LoadReport",
    "LoopbackTransport",
    "MsgType",
    "NodeProcess",
    "NotSupportedError",
    "PeerBusy",
    "PeeringTransport",
    "ProtocolError",
    "RemoteError",
    "RequestTimeout",
    "RoutingView",
    "RuntimeRecovery",
    "ShardCrashed",
    "ShardError",
    "ShardedCluster",
    "TcpTransport",
    "Transport",
    "TransportError",
    "decode_frame",
    "encode_frame",
    "latency_percentiles",
    "make_cluster",
    "make_transport",
    "run_load",
    "shard_assignment",
]
