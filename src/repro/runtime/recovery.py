"""Wire-level self-healing for the live runtime.

The simulator's recovery stack (:mod:`repro.core.recovery`) runs on
the simulated clock: probes are charged RTT calls and repairs fire
inside clock callbacks.  The live runtime has no simulated time --
only wall-clock heartbeats over a real transport -- so
:class:`RuntimeRecovery` adapts the clock-free halves onto the event
loop: the SWIM state machine is
:class:`~repro.core.recovery.SwimCore` itself (rotation, witness
draws, suspicion ledger, partition shielding), answered here with
HEARTBEAT frames, and every confirmed death is handled by the very
same :class:`~repro.core.recovery.RecoveryManager` the simulator uses
-- zone takeover, eager table invalidation, replica re-hosting and
record purging are clock-free state transformations, so they run
identically whether a simulated tick or a live verdict triggers them.

A direct probe is one HEARTBEAT round-trip; an indirect one is a
``{"relay": target}`` ping-req answered by the witness's own heartbeat
round-trip.  A member whose actor is gone runs no protocol but stays
probed until confirmed.
"""

from __future__ import annotations

import asyncio

from repro.core.recovery import (
    DetectorParams,
    RecoveryManager,
    SwimCore,
    member_domains,
)
from repro.runtime.node import PeerBusy, RequestTimeout
from repro.runtime.wire import MsgType


class RuntimeRecovery(SwimCore):
    """:class:`~repro.core.recovery.SwimCore` + recovery on a live cluster.

    A probe is a HEARTBEAT frame between two actors, a round fires
    from an event-loop task and its probes run concurrently.
    """

    def __init__(self, cluster, params: DetectorParams = None, seed: int = 0xFD):
        if params is None:
            # one detector round per configured heartbeat period
            params = DetectorParams(
                period=cluster.config.heartbeat_period * 1000.0
            )
        super().__init__(params, seed)
        self.cluster = cluster
        #: the simulator's repair engine, reused verbatim (clock-free);
        #: registers its ``handle_death`` on :attr:`on_death`
        self.manager = RecoveryManager(cluster.overlay, self)
        self._task = None

    @property
    def telemetry(self):
        return self.cluster.network.telemetry

    @property
    def period_s(self) -> float:
        """Wall seconds between detector rounds (``params.period`` is ms)."""
        return self.params.period / 1000.0

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Arm the periodic detector round on the event loop."""
        if self._task is None:
            self._task = asyncio.get_running_loop().create_task(self._run())

    async def stop(self) -> None:
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None

    async def _run(self) -> None:
        while True:
            await asyncio.sleep(self.period_s)
            await self.tick()

    # -- probing -----------------------------------------------------------

    async def _heartbeat(self, prober: int, target: int, relay=None):
        """One HEARTBEAT round-trip; True / False / None (inconclusive).

        Probes never ride the cluster's request retry policy: SWIM's
        own attempt/witness schedule is the redundancy, and a silent
        probe must stay cheap.  On these transports every real absence
        *refuses the send*: a dead peer's endpoint is unbound and an
        active partition drops the frame at the sender, so both
        surface instantly as :class:`TransportError` -- that is the
        death evidence.  A timeout, by contrast, means the frame was
        accepted and the reply is merely late (event-loop congestion
        during a mass-kill round, a takeover repair burst), so it
        abstains (None) rather than counting as silence -- SWIM
        Lifeguard's local-health rule, without which a kill-33% event
        at a few hundred nodes snowballs into a false-kill cascade.
        """
        actor = self.cluster.actors.get(prober)
        if actor is None:
            return None  # the prober vanished; no evidence either way
        timeout = self.cluster.config.probe_timeout
        payload = {"seq": self.rounds}
        if relay is not None:
            payload["relay"] = relay
            payload["timeout"] = timeout
        try:
            ack = await actor.request(
                target, MsgType.HEARTBEAT, payload, timeout=timeout, retry=False
            )
        except PeerBusy:
            # an overloaded peer shed the probe -- but *it answered*:
            # only a live actor sends BUSY, so this is alive evidence,
            # never grounds for suspicion (overload must stay
            # distinguishable from death).  Unreachable today --
            # HEARTBEAT rides the unshed control lane -- but kept so
            # no future lane change can turn load into a crash verdict.
            return True
        except RequestTimeout:
            return None  # late, not absent
        except Exception:
            if self.cluster.actors.get(prober) is not actor:
                # the *prober* was stopped mid-flight (its pending
                # futures resolve with TransportError); that says
                # nothing about the target -- during a mass kill this
                # is the seed of a false-suspicion cascade
                return None
            return False
        if relay is None:
            return True
        return bool(ack.get("ok")) or None  # witness saying "no" is weak

    async def _probe_target(self, prober: int, target: int, members: list):
        """Answer :meth:`probe_script`'s requests with HEARTBEAT frames."""
        script = self.probe_script(prober, target, members)
        verdict = None
        try:
            while True:
                src, dst, indirect = script.send(verdict)
                verdict = await self._heartbeat(
                    src, dst, relay=dst if indirect else None
                )
        except StopIteration as done:
            return done.value

    # -- rounds ------------------------------------------------------------

    def _runs_protocol(self, member: int) -> bool:
        """A member whose actor is gone is a dead process."""
        return member in self.cluster.actors

    async def tick(self) -> list:
        """One detector round; returns nodes confirmed dead this round."""
        cluster = self.cluster
        members = sorted(cluster.overlay.ecan.can.nodes)
        pairs = self.plan_round(members, self._runs_protocol)
        verdicts = await asyncio.gather(
            *(self._probe_target(p, t, members) for p, t in pairs)
        )
        confirmed = self.settle_round(
            pairs,
            verdicts,
            member_domains(cluster.overlay),
            cluster.network.faults,
        )
        for target in confirmed:
            genuinely_dead = target not in cluster.actors
            if not genuinely_dead:
                # falsely confirmed: the protocol has already decided,
                # so make the verdict true -- crash the accused node's
                # host -- rather than leave a live actor the overlay no
                # longer recognizes (SWIM's "suicide on accusation")
                await cluster.crash(target)
            self.confirm_death(target, genuinely_dead)
            # each confirm runs a synchronous takeover repair; yield so
            # in-flight replies of live peers get processed between them
            await asyncio.sleep(0)
        return confirmed

    # -- reconciliation ----------------------------------------------------

    async def reprobe_suspects(self) -> int:
        """Direct-probe every suspect concurrently; any answer un-suspects
        (partition-heal refutation).  Returns suspicions cleared."""
        probers, suspects = self.reprobe_plan(
            sorted(self.cluster.overlay.ecan.can.nodes), self._runs_protocol
        )

        async def answered(target) -> bool:
            for prober in probers:
                if await self._heartbeat(prober, target):
                    return True
            return False

        verdicts = await asyncio.gather(*(answered(t) for t in suspects))
        return sum(self.refute(t) for t, ok in zip(suspects, verdicts) if ok)

    async def reconcile(self) -> dict:
        """Anti-entropy after churn or a partition heal.

        The live counterpart of
        :meth:`~repro.core.recovery.RecoveryManager.reconcile`:
        suspects are re-probed over the wire (refuting shielded
        verdicts once the partition is gone), then the shared
        clock-free repairs run -- missed pub/sub notifications resync,
        crash-lost records are re-published by their subjects, and
        records naming departed members are purged.
        """
        overlay = self.cluster.overlay
        unsuspected = await self.reprobe_suspects()
        resynced = overlay.pubsub.resync_once()
        republished = self.manager.republish_lost()
        purged = self.manager.purge_dead_references()
        return self.manager.reconciled(
            {
                "unsuspected": unsuspected,
                "resynced": resynced,
                "republished": republished,
                "purged": purged,
            }
        )

    def scrub(self) -> dict:
        """One self-stabilization scrub pass (tables, records, index)."""
        return self.manager.scrub()
