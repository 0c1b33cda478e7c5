"""Deterministic fault injection for the simulated network.

The seed :class:`~repro.netsim.network.Network` is perfect: every RTT
probe succeeds and every routed message arrives.  The paper's
resilience story ("as nodes join (depart) or network conditions
flux") needs an adversarial substrate, so this module wraps the
network with a :class:`FaultInjector` that -- driven by a seeded RNG
and the *simulated* clock, never wall-clock time -- injects:

* **probe loss** -- a measurement simply never answers
  (``fault_probe_lost``);
* **message loss** -- one overlay forwarding hop drops the message
  (``fault_message_lost``);
* **transit-domain partitions** -- scheduled windows during which a
  set of transit domains is severed from the rest of the topology
  (``fault_partition_drop``);
* **crash-stop node failures** -- hosts marked crashed answer nothing
  until revived (``fault_crash_drop``).

Every injected fault is also accounted in the network's
:class:`~repro.netsim.network.MessageStats` under its own category,
so experiments can report exactly what the fault plan did.

While an injector is armed (see :meth:`Network.arm_faults`),
``Network.rtt`` returns the same ``float`` as on the perfect network
or raises :class:`ProbeTimeout`; ``Network.rtt_many`` returns ``NaN``
for lost probes.  Determinism: two injectors built from the same plan and seed
observe identical fault sequences for identical call sequences.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

#: stats categories an injector may charge
FAULT_CATEGORIES = (
    "fault_probe_lost",
    "fault_partition_drop",
    "fault_crash_drop",
    "fault_message_lost",
)


class ProbeTimeout(Exception):
    """A charged probe went unanswered (lost, partitioned or crashed)."""

    def __init__(self, u: int, v: int, reason: str = "lost"):
        super().__init__(f"probe {u}->{v} timed out ({reason})")
        self.u = u
        self.v = v
        self.reason = reason


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
    #: scheduled :class:`Partition` windows
    partitions: tuple = ()

    def __post_init__(self):
        for name in ("probe_loss_rate", "message_loss_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be within [0, 1], got {rate}")
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

    def probe(self, u: int, v: int) -> float:
        """One RTT probe through the fault plan (already charged).

        Raises :class:`ProbeTimeout` when the probe is lost, crosses a
        partition or targets a crashed host.
        """
        blocked = self._blocked(u, v)
        if blocked is not None:
            self._inject(blocked)
            raise ProbeTimeout(u, v, reason=blocked)
        loss = self.plan.probe_loss_rate
        if loss and self.rng.random() < loss:
            self._inject("fault_probe_lost")
            raise ProbeTimeout(u, v)
        return 2.0 * self.network.oracle.distance(u, v)

    def probe_many(self, u: int, hosts) -> np.ndarray:
        """Probe each host; ``NaN`` marks a lost probe."""
        out = np.empty(len(hosts), dtype=np.float64)
        for i, host in enumerate(hosts):
            try:
                out[i] = self.probe(u, int(host))
            except ProbeTimeout:
                out[i] = np.nan
        return out

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
