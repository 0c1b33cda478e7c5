"""Deterministic fault injection for the simulated network.

The seed :class:`~repro.netsim.network.Network` is perfect: every RTT
probe succeeds and every routed message arrives.  The paper's
resilience story ("as nodes join (depart) or network conditions
flux") needs an adversarial substrate, so this module wraps the
network with a :class:`FaultInjector` that -- driven by a seeded RNG
and the *simulated* clock, never wall-clock time -- injects:

* **probe loss** -- a measurement simply never answers
  (``fault_probe_lost``);
* **probe timeouts** -- a latency spike pushes the answer past the
  per-probe deadline (``fault_probe_timeout``);
* **per-link latency spikes** -- the probe succeeds but reports an
  inflated RTT (``fault_latency_spike``);
* **transit-domain partitions** -- scheduled windows during which a
  set of transit domains is severed from the rest of the topology
  (``fault_partition_drop``);
* **crash-stop node failures** -- hosts marked crashed answer nothing
  until revived (``fault_crash_drop``).

Every injected fault is also accounted in the network's
:class:`~repro.netsim.network.MessageStats` under its own category,
so experiments can report exactly what the fault plan did.

While an injector is armed (see :meth:`Network.arm_faults`),
``Network.rtt`` returns a :class:`ProbeResult` -- a ``float``
subclass, so existing arithmetic keeps working -- or raises
:class:`ProbeTimeout`; ``Network.rtt_many`` returns ``NaN`` for lost
probes.  Determinism: two injectors built from the same plan and seed
observe identical fault sequences for identical call sequences.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

#: stats categories an injector may charge
FAULT_CATEGORIES = (
    "fault_probe_lost",
    "fault_probe_timeout",
    "fault_latency_spike",
    "fault_partition_drop",
    "fault_crash_drop",
    "fault_message_lost",
)


class ProbeTimeout(Exception):
    """A charged probe went unanswered (lost, partitioned, or too slow)."""

    def __init__(self, u: int, v: int, reason: str = "lost", waited: float = 0.0):
        super().__init__(f"probe {u}->{v} timed out ({reason})")
        self.u = u
        self.v = v
        self.reason = reason
        #: simulated ms the prober waited before giving up
        self.waited = waited


class ProbeResult(float):
    """A measured RTT plus fault metadata.

    A ``float`` subclass so every existing caller of ``Network.rtt``
    keeps working unchanged when faults are armed.
    """

    def __new__(cls, rtt: float, spiked: bool = False, attempts: int = 1):
        self = super().__new__(cls, rtt)
        self.spiked = spiked
        self.attempts = attempts
        return self

    @property
    def rtt(self) -> float:
        return float(self)

    def __repr__(self):
        return f"ProbeResult({float(self):.3f}, spiked={self.spiked})"


@dataclass(frozen=True)
class Partition:
    """A scheduled network split isolating some transit domains.

    During ``[start, end)`` (simulated ms) traffic between a host
    inside ``domains`` and a host outside them is dropped; traffic
    with both endpoints on the same side is unaffected.
    """

    start: float
    end: float
    domains: tuple

    def __post_init__(self):
        if self.end <= self.start:
            raise ValueError("partition must end after it starts")
        object.__setattr__(self, "domains", tuple(int(d) for d in self.domains))

    def active(self, now: float) -> bool:
        return self.start <= now < self.end

    def severs(self, domain_a: int, domain_b: int) -> bool:
        return (domain_a in self.domains) != (domain_b in self.domains)


@dataclass(frozen=True)
class FaultPlan:
    """Knobs describing which faults to inject and how often.

    All probabilities are per-probe / per-hop; ``partitions`` is a
    schedule over simulated time.
    """

    #: probability a charged RTT probe is silently lost
    probe_loss_rate: float = 0.0
    #: probability one overlay forwarding hop loses the message
    message_loss_rate: float = 0.0
    #: probability a probe's RTT is inflated by ``latency_spike_factor``
    latency_spike_rate: float = 0.0
    latency_spike_factor: float = 4.0
    #: per-probe deadline (ms); a (possibly spiked) RTT above it times out
    probe_timeout_ms: float = math.inf
    #: scheduled :class:`Partition` windows
    partitions: tuple = ()

    def __post_init__(self):
        for name in ("probe_loss_rate", "message_loss_rate", "latency_spike_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be within [0, 1], got {rate}")
        if self.latency_spike_factor < 1.0:
            raise ValueError("latency_spike_factor must be >= 1")
        if self.probe_timeout_ms <= 0:
            raise ValueError("probe_timeout_ms must be positive")
        object.__setattr__(self, "partitions", tuple(self.partitions))

    def with_loss(self, rate: float) -> "FaultPlan":
        """Convenience: same plan with probe *and* message loss ``rate``."""
        return replace(self, probe_loss_rate=rate, message_loss_rate=rate)


class FaultInjector:
    """Applies a :class:`FaultPlan` to one network, deterministically.

    The injector draws from its own ``numpy`` generator in call order;
    no wall-clock state is consulted, so a run is a pure function of
    (plan, seed, call sequence).
    """

    def __init__(self, network, plan: FaultPlan = None, seed: int = 0):
        self.network = network
        self.plan = plan if plan is not None else FaultPlan()
        self.rng = np.random.default_rng(seed)
        self.armed = False
        #: hosts whose processes crash-stopped (revived on host reuse)
        self.crashed_hosts: set = set()
        #: per-category injected-fault tally (mirrors the stats categories)
        self.injected = Counter()

    # -- host lifecycle ----------------------------------------------------

    def crash_host(self, host: int) -> None:
        """Mark ``host`` crash-stopped: all its traffic now times out."""
        self.crashed_hosts.add(int(host))

    def revive_host(self, host: int) -> None:
        """A new process started on ``host``; traffic flows again."""
        self.crashed_hosts.discard(int(host))

    # -- partition visibility ----------------------------------------------

    def active_partitions(self, now: float = None) -> list:
        """Partitions currently severing traffic (at ``now``).

        Callers -- the failure detector, recovery, experiments -- use
        this to *react* to partition windows (e.g. hold a death verdict
        for a node cut off by an active partition) instead of blindly
        interpreting probe silence.
        """
        if now is None:
            now = self.network.clock.now
        return [p for p in self.plan.partitions if p.active(now)]

    def watch_partitions(self, callback) -> int:
        """Schedule ``callback(partition)`` at each partition's end.

        Fires on the network's simulated clock when the window closes
        (the moment traffic flows again), so recovery can run its
        partition-heal reconciliation exactly once per window instead
        of polling.  Windows already over are not watched.  Returns
        the number of windows armed.
        """
        clock = self.network.clock
        armed = 0
        for partition in self.plan.partitions:
            if partition.end <= clock.now:
                continue
            clock.schedule_at(
                partition.end, lambda p=partition: callback(p)
            )
            armed += 1
        return armed

    def severed(self, u: int, v: int, now: float = None) -> bool:
        """Would an active partition drop traffic between ``u`` and ``v``?"""
        domains = self.network.topology.transit_domain
        domain_u, domain_v = int(domains[u]), int(domains[v])
        return any(
            p.severs(domain_u, domain_v) for p in self.active_partitions(now)
        )

    # -- fault decisions ---------------------------------------------------

    def _inject(self, category: str) -> None:
        self.injected[category] += 1
        self.network.stats.count(category)
        self.network.telemetry.count("fault")

    def _blocked(self, u: int, v: int):
        """Structural reason ``u``/``v`` cannot talk right now, or None."""
        if int(u) in self.crashed_hosts or int(v) in self.crashed_hosts:
            return "fault_crash_drop"
        if self.plan.partitions:
            domains = self.network.topology.transit_domain
            now = self.network.clock.now
            domain_u, domain_v = int(domains[u]), int(domains[v])
            for partition in self.plan.partitions:
                if partition.active(now) and partition.severs(domain_u, domain_v):
                    return "fault_partition_drop"
        return None

    def probe(self, u: int, v: int) -> ProbeResult:
        """One RTT probe through the fault plan (already charged).

        Raises :class:`ProbeTimeout` when the probe is lost, crosses a
        partition, targets a crashed host, or exceeds the deadline.
        """
        plan = self.plan
        blocked = self._blocked(u, v)
        if blocked is not None:
            self._inject(blocked)
            raise ProbeTimeout(u, v, reason=blocked, waited=plan.probe_timeout_ms)
        if plan.probe_loss_rate and self.rng.random() < plan.probe_loss_rate:
            self._inject("fault_probe_lost")
            raise ProbeTimeout(u, v, reason="lost", waited=plan.probe_timeout_ms)
        rtt = 2.0 * self.network.oracle.distance(u, v)
        spiked = False
        if plan.latency_spike_rate and self.rng.random() < plan.latency_spike_rate:
            rtt *= plan.latency_spike_factor
            spiked = True
            self._inject("fault_latency_spike")
        if rtt > plan.probe_timeout_ms:
            self._inject("fault_probe_timeout")
            raise ProbeTimeout(u, v, reason="timeout", waited=plan.probe_timeout_ms)
        return ProbeResult(rtt, spiked=spiked)

    def probe_many_detailed(self, u: int, hosts) -> tuple:
        """Probe each host; returns ``(rtts, spiked)``.

        ``rtts`` holds ``NaN`` for lost probes; ``spiked`` flags
        answers inflated by a latency-spike fault.
        """
        hosts = np.asarray(hosts, dtype=np.int64)
        out = np.empty(len(hosts), dtype=np.float64)
        spiked = np.zeros(len(hosts), dtype=bool)
        for i, host in enumerate(hosts):
            try:
                result = self.probe(u, int(host))
                out[i] = result
                spiked[i] = result.spiked
            except ProbeTimeout:
                out[i] = np.nan
        return out, spiked

    def deliver(self, u: int, v: int) -> bool:
        """Would one overlay forwarding hop ``u -> v`` arrive?"""
        blocked = self._blocked(u, v)
        if blocked is not None:
            self._inject(blocked)
            return False
        if (
            self.plan.message_loss_rate
            and self.rng.random() < self.plan.message_loss_rate
        ):
            self._inject("fault_message_lost")
            return False
        return True

    # -- diagnostics -------------------------------------------------------

    def injected_total(self) -> int:
        return sum(self.injected.values())

    def __repr__(self):
        return (
            f"FaultInjector(armed={self.armed}, "
            f"crashed={len(self.crashed_hosts)}, injected={dict(self.injected)!r})"
        )
