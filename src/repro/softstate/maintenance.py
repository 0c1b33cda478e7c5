"""Soft-state maintenance policies (§5.2 of the paper).

The global state can be maintained lazily; the paper sketches three
points on the spectrum, all implemented here:

* **reactive** -- "departed nodes are deleted from the global state
  only when they are selected as routing neighbor replacements and
  later found un-reachable": callers report a failed use via
  :meth:`MaintenanceDriver.on_failed_use` and the dead record is
  purged then.
* **periodic** -- "each owner of the map information can periodically
  poll the liveliness of the nodes": a clock-driven sweep where the
  *hosting owner* of each record pings the recorded node through the
  (fault-injectable) probe path and purges the dead.
* **proactive** -- "update the map when a node is about to depart":
  graceful departures withdraw their own records.

Liveness is decided by probes, not an oracle: a ping is answered only
when the target is still an overlay member *and* the probe survives
any injected faults.  Under probe loss a single silent ping is not
proof of death, so a suspected death is confirmed ``confirmations``
times (each round retried per the :class:`RetryPolicy`) before the
record is purged -- eliminating false-positive purges at the price of
extra probes for genuinely dead nodes.

Independent of the policy, records lease-expire through
:meth:`SoftStateStore.expire_stale`, which the driver also runs on
its sweep.
"""

from __future__ import annotations

import enum

from repro.netsim.faults import ProbeTimeout
from repro.softstate.store import SoftStateStore


class MaintenancePolicy(enum.Enum):
    REACTIVE = "reactive"
    PERIODIC = "periodic"
    PROACTIVE = "proactive"


class MaintenanceDriver:
    """Applies one maintenance policy to a soft-state store."""

    def __init__(
        self,
        store: SoftStateStore,
        ecan,
        network,
        policy: MaintenancePolicy = MaintenancePolicy.PROACTIVE,
        retry_policy=None,
    ):
        self.store = store
        self.ecan = ecan
        self.network = network
        self.policy = policy
        #: sim ms between periodic sweeps
        self.poll_interval = 60.0
        if retry_policy is None:
            from repro.core.reliability import RetryPolicy

            retry_policy = RetryPolicy()
        #: RetryPolicy for liveness pings (attempts + sim-clock backoff)
        self.retry_policy = retry_policy
        #: silent ping rounds required before a record is declared dead
        self.confirmations = 2
        self._timer = None
        self.purged = 0
        #: records re-published by their subjects after copy loss
        self.republished = 0
        #: purges of records whose node was in fact still a member --
        #: the simulator knows ground truth, so resilience experiments
        #: can report the false-purge rate directly
        self.false_purges = 0

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Arm the periodic sweep (no-op for the other policies)."""
        if self.policy is MaintenancePolicy.PERIODIC and self._timer is None:
            self._timer = self.network.clock.schedule_every(
                self.poll_interval, self.poll_once
            )

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    # -- policy entry points ---------------------------------------------------

    def on_failed_use(self, node_id: int) -> int:
        """A neighbor selection / forwarding found ``node_id`` dead."""
        if self.policy is not MaintenancePolicy.REACTIVE:
            return 0
        removed = self.store.purge_record(node_id, charge=True)
        self.purged += removed
        if removed:
            self.network.telemetry.count("purge")
        return removed

    def on_departure(self, node_id: int, graceful: bool = True) -> int:
        """Node is leaving; proactive policy withdraws its records."""
        if self.policy is MaintenancePolicy.PROACTIVE and graceful:
            removed = self.store.withdraw(node_id, charge=True)
            self.purged += removed
            return removed
        return 0

    def _ping(self, src_host: int, dst_host: int, alive: bool) -> bool:
        """One charged liveness ping; True when an answer came back.

        An application-level ping is answered only when the target
        process is still an overlay member (``alive``) *and* the probe
        itself survives any injected faults -- the cost is paid either
        way.
        """
        try:
            self.network.rtt(src_host, dst_host, category="maintenance_ping")
        except ProbeTimeout:
            return False
        return alive

    def _confirm_dead(self, src_host: int, dst_host: int, alive: bool) -> bool:
        """N-confirmation probing: dead only if every round stays silent.

        Each confirmation round is retried per the
        :class:`RetryPolicy` with sim-clock backoff, so under loss the
        probability of a false death verdict is
        ``loss**(confirmations * max_attempts)``.
        """
        policy = self.retry_policy
        clock = self.network.clock
        telemetry = self.network.telemetry
        for _ in range(max(1, self.confirmations)):
            attempts = policy.max_attempts if policy is not None else 1
            for attempt in range(attempts):
                if attempt and policy is not None:
                    policy.sleep(attempt - 1, clock=clock, telemetry=telemetry)
                if self._ping(src_host, dst_host, alive):
                    return False
        return True

    def poll_once(self) -> int:
        """One polling sweep: the owner of each record pings its node.

        Each record costs at least one charged ``maintenance_ping``
        through the fault-injectable probe path; suspected deaths are
        re-probed per :meth:`_confirm_dead` before the purge.
        """
        with self.network.telemetry.phase("maintenance"):
            return self._poll_once()

    def _poll_once(self) -> int:
        telemetry = self.network.telemetry
        verdicts: dict = {}
        for region, bucket in list(self.store.maps.items()):
            for node_id, stored in list(bucket.items()):
                owner = self.store.record_owner(region, node_id)
                owner_node = self.ecan.can.nodes.get(owner)
                if owner_node is None:
                    continue
                src_host = owner_node.host
                alive = node_id in self.ecan.can.nodes
                if self._ping(src_host, stored.record.host, alive):
                    # any answered ping this sweep proves liveness, even
                    # over a prior (mistaken) dead verdict
                    verdicts[node_id] = True
                    continue
                if node_id in verdicts:
                    continue  # verdict already settled; the ping was still paid
                verdicts[node_id] = not self._confirm_dead(
                    src_host, stored.record.host, alive
                )
        dead = {n for n, verdict in verdicts.items() if not verdict}
        removed = 0
        for node_id in dead:
            if node_id in self.ecan.can.nodes:
                self.false_purges += 1
            removed += self.store.purge_record(node_id, charge=False)
            telemetry.count("purge")
        removed += self.store.expire_stale()
        self.purged += removed
        restored = self.store.republish_lost()
        self.republished += len(restored)
        if restored:
            telemetry.count("republish", len(restored))
        return removed

    def stale_entries(self) -> int:
        """Records in the maps whose nodes are no longer overlay members."""
        alive = self.ecan.can.nodes
        return sum(
            1
            for bucket in self.store.maps.values()
            for node_id in bucket
            if node_id not in alive
        )
