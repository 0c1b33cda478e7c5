"""The :class:`Network` facade.

Higher layers (overlay, proximity search, soft-state) interact with
the physical network exclusively through this class:

* ``rtt(u, v)`` -- a *measured* round-trip time.  Every call is
  accounted in :class:`MessageStats` under a caller-supplied category,
  because the paper's central trade-off is measurement cost versus
  proximity accuracy.
* ``latency(u, v)`` -- the oracle's one-way latency, used for metrics
  (stretch denominators, path accumulation) without being charged as
  traffic.
* ``sample_hosts`` -- pick physical nodes to host overlay nodes
  (stub/edge nodes by default, as overlay participants are end hosts).
* ``clock`` -- the shared event scheduler.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.netsim.distance import DistanceOracle
from repro.netsim.events import EventScheduler
from repro.netsim.faults import FaultInjector, FaultPlan
from repro.netsim.latency import LatencyModel
from repro.netsim.transit_stub import Topology


class MessageStats:
    """Categorised message/probe counters.

    A thin wrapper over :class:`collections.Counter` with snapshot /
    delta helpers so experiments can report "messages spent in this
    phase".
    """

    def __init__(self):
        self._counts = Counter()

    def count(self, category: str, n: int = 1) -> None:
        """Record ``n`` messages of ``category``."""
        self._counts[category] += n

    def get(self, category: str) -> int:
        return self._counts.get(category, 0)

    def total(self) -> int:
        return sum(self._counts.values())

    def snapshot(self) -> dict:
        """Copy of all counters."""
        return dict(self._counts)

    def delta(self, before: dict) -> dict:
        """Difference between the current counters and ``before``."""
        out = {}
        for key, value in self._counts.items():
            diff = value - before.get(key, 0)
            if diff:
                out[key] = diff
        return out

    def __repr__(self):
        return f"MessageStats({dict(self._counts)!r})"


class Network:
    """Simulated physical network: topology + latency model + oracle."""

    def __init__(self, topology: Topology, latency_model: LatencyModel):
        # late import: repro.core.reliability imports repro.netsim.faults,
        # so a module-level import here would be circular
        from repro.core.telemetry import Telemetry

        self.topology = topology
        self.latency_model = latency_model
        self.oracle = DistanceOracle.from_topology(topology, latency_model)
        self.stats = MessageStats()
        self.clock = EventScheduler()
        #: structured observability channel shared by every layer above
        self.telemetry = Telemetry(clock=self.clock)
        #: armed :class:`FaultInjector`, or None for the perfect network
        self.faults = None

    @property
    def num_nodes(self) -> int:
        return self.topology.num_nodes

    # -- fault injection ---------------------------------------------------

    def arm_faults(self, plan=None, seed: int = 0) -> FaultInjector:
        """Install (and arm) a fault injector over this network.

        ``plan`` may be a :class:`FaultPlan`, an existing
        :class:`FaultInjector`, or None for an all-defaults plan.
        While armed, :meth:`rtt` may raise
        :class:`~repro.netsim.faults.ProbeTimeout` and
        :meth:`rtt_many` reports lost probes as ``NaN``.
        """
        if isinstance(plan, FaultInjector):
            injector = plan
            injector.network = self
        else:
            injector = FaultInjector(self, plan, seed=seed)
        injector.armed = True
        self.faults = injector
        return injector

    def disarm_faults(self) -> None:
        """Return to the perfect network (keeps accumulated fault stats)."""
        if self.faults is not None:
            self.faults.armed = False
        self.faults = None

    # -- measurement (charged) -------------------------------------------

    def rtt(self, u: int, v: int, category: str = "rtt_probe") -> float:
        """Measure the RTT between hosts ``u`` and ``v`` (charged).

        With faults armed a lost probe raises
        :class:`~repro.netsim.faults.ProbeTimeout`.
        """
        self._charge_probes(category, 1)
        if self.faults is not None:
            return self.faults.probe(u, v)
        return 2.0 * self.oracle.distance(u, v)

    def _charge_probes(self, category: str, n: int) -> None:
        """The one place a probe is charged, to both ledgers."""
        self.stats.count(category, n)
        self.telemetry.count("probe", n)

    def rtt_many(self, u: int, hosts, category: str = "rtt_probe") -> np.ndarray:
        """Measure RTTs from ``u`` to each host in ``hosts`` (charged).

        With faults armed, lost probes come back as ``NaN``.
        """
        hosts = np.asarray(hosts, dtype=np.int64)
        self._charge_probes(category, len(hosts))
        if self.faults is not None:
            return self.faults.probe_many(u, hosts)
        return 2.0 * self.oracle.row(u)[hosts].astype(np.float64)

    def rtt_list(self, u: int, hosts, category: str = "rtt_probe") -> list:
        """:meth:`rtt_many` as a list of Python floats, for short batches.

        On the perfect network each RTT is read straight off the oracle
        row: ``row.item(v)`` widens the float32 one-way latency to a
        float64 exactly, and doubling it is exact too, so the list holds
        the very bits ``rtt_many`` returns -- without an index array, a
        gather or a cast per call.  With faults armed it is
        ``rtt_many(...).tolist()``.
        """
        if self.faults is not None:
            return self.rtt_many(u, hosts, category=category).tolist()
        self._charge_probes(category, len(hosts))
        row = self.oracle.row(u)
        return [2.0 * row.item(v) for v in hosts]

    # -- oracle access (not charged; used for ground truth / metrics) ----

    def latency(self, u: int, v: int) -> float:
        """One-way latency (ms); free, for metric computation."""
        return self.oracle.distance(u, v)

    def latencies_from(self, u: int) -> np.ndarray:
        """One-way latency from ``u`` to every physical node; free."""
        return self.oracle.row(u)

    def path_latency(self, hosts) -> float:
        """Accumulated one-way latency along a host sequence; free.

        Each distinct source's distance row is fetched once, so a long
        path costs one cached-row lookup per unique hop rather than
        one oracle round-trip per edge.
        """
        total = 0.0
        rows: dict = {}
        for a, b in zip(hosts, hosts[1:]):
            if a == b:
                continue
            row = rows.get(a)
            if row is None:
                row = rows[a] = self.oracle.row(a)
            total += float(row[b])
        return total

    # -- host management ---------------------------------------------------

    def sample_hosts(
        self, n: int, rng: np.random.Generator, stub_only: bool = True
    ) -> np.ndarray:
        """Sample ``n`` distinct physical nodes to serve as overlay hosts."""
        pool = self.topology.stub_nodes() if stub_only else np.arange(self.num_nodes)
        if n > len(pool):
            raise ValueError(f"requested {n} hosts from a pool of {len(pool)}")
        return rng.choice(pool, size=n, replace=False)
