"""Self-healing recovery: detect, take over, re-replicate, reconcile.

The paper's maintenance story (§5.2) assumes the overlay converges
back to a consistent state after departures, but graceful leaves are
the easy half: a *crash* leaves orphaned zones, vanished map shards
and diverged stores.  This module closes the loop with four pieces,
all driven by the simulated clock through the fault-injectable probe
path (so every recovery action has a message bill and a latency):

* :class:`SwimCore` -- the SWIM-style detector as a clock- and IO-free
  state machine: each protocol period every live member direct-pings
  one rotating peer; on silence it issues indirect ping-reqs through
  :data:`WITNESSES` other members; only when every path stays silent does
  the target become *suspected*, and only after ``suspicion_periods``
  further all-silent rounds is it confirmed dead.  Any answered probe
  refutes the suspicion, so probe loss alone never kills a live node.
  Death verdicts are additionally held while an active transit
  partition severs the prober from the target
  (:meth:`FaultInjector.active_partitions` makes the window visible),
  so partitioned-but-alive nodes survive to be reconciled.
  :class:`FailureDetector` is its adapter onto the simulated clock;
  :class:`~repro.runtime.recovery.RuntimeRecovery` is the one onto
  the live runtime's HEARTBEAT frames.
* :class:`RecoveryManager` -- on a confirmed death it drives the CAN
  takeover for the corpse's zones (``crash_takeover``), eagerly
  invalidates every expressway entry pointing at it
  (``eager_invalidate``), purges its soft-state records, re-hosts map
  copies from surviving replicas (``softstate_rehost``) and drops its
  subscriptions.  On a partition heal it runs an anti-entropy
  reconciliation: missed pub/sub notifications resync, suspects are
  re-probed (falsely-suspected nodes are un-suspected), records lost
  with crashed hosts are re-published by their subjects, and records
  naming dead hosts are purged.
* :func:`check_invariants` -- the stack-wide convergence check run
  after every chaos scenario: full tessellation coverage, neighbor
  symmetry, no map copy hosted on a dead node, no record or table
  entry naming a dead member.

Every action is charged to :class:`~repro.netsim.network.MessageStats`
and traced through telemetry, so recovery's cost shows up in the
BENCH trajectory next to the traffic it protects.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: stats categories the recovery stack may charge
RECOVERY_CATEGORIES = (
    "fd_ping",
    "fd_ping_req",
    "crash_takeover",
    "takeover_fallback",
    "eager_invalidate",
    "softstate_rehost",
    "recovery_republish",
    "recovery_reconcile",
)


#: direct pings a prober sends its target per round
PING_ATTEMPTS = 2
#: indirect ping-req witnesses consulted when every direct ping is silent
WITNESSES = 3


@dataclass(frozen=True)
class DetectorParams:
    """Knobs of the SWIM-style failure detector.

    With probe loss rate ``L`` the probability that one round of a
    live node stays silent is ``L ** (PING_ATTEMPTS + WITNESSES)``;
    a false death verdict needs ``suspicion_periods + 1`` consecutive
    such rounds, so the defaults push the false-kill probability to
    ``L**15`` -- effectively zero for any plausible loss rate.
    """

    #: protocol period (simulated ms) between detector rounds
    period: float = 500.0
    #: additional all-silent rounds before a suspect is confirmed dead
    suspicion_periods: int = 2

    def __post_init__(self):
        if self.period <= 0:
            raise ValueError("period must be positive")
        if self.suspicion_periods < 0:
            raise ValueError("suspicion_periods must be non-negative")


class SwimCore:
    """The SWIM failure-detection state machine, free of clocks and IO.

    Inputs are the sorted membership, which members run the protocol,
    and the tri-state verdict of every probe; outputs are probe
    requests and the targets whose death is confirmed.  The adapters
    (:class:`FailureDetector` on the simulated clock,
    :class:`~repro.runtime.recovery.RuntimeRecovery` on the event
    loop) only move probes and pick the moment a round runs; rotation,
    witness draws, the suspicion ledger, partition shielding and
    confirm bookkeeping all live here.

    Probers rotate deterministically: in round ``r`` the ``i``-th
    member (sorted) pings member ``i + 1 + (r mod (n-1))`` -- a
    fixed-point-free permutation, so every member is probed exactly
    once per round and a corpse accumulates suspicion at a bounded
    rate.  Crashed members run no protocol (their ping slot is
    skipped), but they stay *probed* until confirmed.
    """

    #: where ``fd_refute`` / ``fd_confirm_death`` events go (or None)
    telemetry = None

    def __init__(self, params: DetectorParams = None, seed: int = 0xFD):
        self.params = params if params is not None else DetectorParams()
        self.rng = np.random.default_rng(seed)
        #: node_id -> consecutive all-silent rounds observed
        self.suspected: dict = {}
        #: confirmed-dead node ids, in confirmation order
        self.confirmed_dead: list = []
        #: death verdicts rendered against nodes that were in fact
        #: alive (the harness knows ground truth); must stay 0 under
        #: probe loss alone
        self.false_kills = 0
        #: suspicions cleared by a later answered probe
        self.refutations = 0
        #: verdicts deferred because a partition shielded the target
        self.shielded_verdicts = 0
        self.rounds = 0
        #: callbacks invoked as ``fn(node_id)`` on a confirmed death
        self.on_death: list = []

    def plan_round(self, members: list, runs_protocol) -> list:
        """Open the next round; returns its ``(prober, target)`` pairs.

        ``members`` is the sorted membership, ``runs_protocol(member)``
        is False for a member whose process is dead.
        """
        self.rounds += 1
        n = len(members)
        if n < 2:
            return []
        shift = 1 + (self.rounds - 1) % (n - 1)
        return [
            (prober, members[(i + shift) % n])
            for i, prober in enumerate(members)
            if runs_protocol(prober)
        ]

    def probe_script(self, prober: int, target: int, members: list):
        """One prober's round against ``target``, as a generator.

        Yields probe requests ``(src, dst, indirect)`` and is sent
        each one's verdict: True (answered), False (clean silence) or
        None (inconclusive).  Direct pings come first
        (:data:`PING_ATTEMPTS` of them); on silence :data:`WITNESSES`
        other members are asked to probe on the prober's behalf.  Returns
        True as soon as anything answered, False when at least one
        direct probe was cleanly silent, None when every probe
        abstained.
        """
        saw_silence = False
        for _ in range(PING_ATTEMPTS):
            verdict = yield prober, target, False
            if verdict:
                return True
            if verdict is False:
                saw_silence = True
        # the prober picks witnesses from its *view* of the membership
        # (which may include undetected corpses -- their ping-req then
        # goes unanswered, exactly as in a real deployment)
        pool = [
            m
            for m in members
            if m != prober and m != target and m not in self.suspected
        ]
        k = min(WITNESSES, len(pool))
        if k:
            for index in self.rng.choice(len(pool), size=k, replace=False):
                if (yield pool[int(index)], target, True):
                    return True
        return False if saw_silence else None

    def settle_round(self, pairs: list, verdicts: list, domain_of, faults) -> list:
        """Close a round; returns the targets to confirm dead.

        ``verdicts[i]`` is :meth:`probe_script`'s result for
        ``pairs[i]``: an answer refutes a suspicion, only *clean*
        silence (False) feeds the ledger, an abstained probe (None) is
        no evidence at all.  ``domain_of(member)`` is the member's
        transit domain, or None once it departed (a target that left
        while the round was in flight is skipped); ``faults`` is the
        injector whose active partitions may explain a silence.
        """
        answered = {t for (_, t), ok in zip(pairs, verdicts) if ok}
        silent = {t: p for (p, t), ok in zip(pairs, verdicts) if ok is False}
        for target in answered:
            if self.refute(target) and self.telemetry is not None:
                self.telemetry.count("fd_refute")

        confirmed = []
        for target, prober in silent.items():
            if target in answered or domain_of(target) is None:
                continue
            count = self.suspected.get(target, 0) + 1
            self.suspected[target] = count
            if count <= self.params.suspicion_periods:
                continue
            if self._shielded(domain_of(prober), domain_of(target), faults):
                # hold the verdict: an active partition explains the
                # silence; reconciliation re-probes after the heal
                self.shielded_verdicts += 1
                continue
            confirmed.append(target)
        return confirmed

    @staticmethod
    def _shielded(prober_domain, target_domain, faults) -> bool:
        """Is the silence explainable by an active transit partition?

        Two cases hold a verdict: the partition severs prober from
        target (the direct path is down), or the target's domain is
        *inside* the partitioned set -- then most witnesses sit on the
        far side and their ping-reqs are blocked, so even a same-side
        prober's silence proves nothing.
        """
        if faults is None or prober_domain is None:
            return False
        return any(
            target_domain in p.domains or p.severs(prober_domain, target_domain)
            for p in faults.active_partitions()
        )

    def confirm_death(self, node_id: int, genuinely_dead: bool) -> None:
        """Render the verdict: ledger, telemetry, ``on_death`` callbacks."""
        self.suspected.pop(node_id, None)
        self.confirmed_dead.append(node_id)
        if not genuinely_dead:
            self.false_kills += 1
        if self.telemetry is not None:
            self.telemetry.count("fd_confirm_death")
        for callback in list(self.on_death):
            callback(node_id)

    def refute(self, target: int) -> bool:
        """An answer from ``target`` clears its suspicion, if it had one."""
        if target not in self.suspected:
            return False
        del self.suspected[target]
        self.refutations += 1
        return True

    def reprobe_plan(self, members: list, runs_protocol) -> tuple:
        """Who direct-pings whom after a partition heal.

        Suspects that departed are dropped from the ledger; returns
        ``(probers, suspects)`` -- up to :data:`WITNESSES` + 1 live,
        unsuspected probers and the suspects still in ``members``.
        Any answer un-suspects through :meth:`refute`.
        """
        present = set(members)
        for target in [t for t in self.suspected if t not in present]:
            del self.suspected[target]
        probers = [
            m for m in members if m not in self.suspected and runs_protocol(m)
        ]
        return probers[: WITNESSES + 1], list(self.suspected)


def member_domains(overlay):
    """``domain_of(member)`` over ``overlay``: the transit domain of a
    member's host, or None once the member departed."""
    nodes = overlay.ecan.can.nodes
    domains = overlay.network.topology.transit_domain

    def domain_of(member):
        node = nodes.get(member)
        return None if node is None else int(domains[node.host])

    return domain_of


class FailureDetector(SwimCore):
    """:class:`SwimCore` on the simulated clock.

    A probe is one charged ``network.rtt`` call through the
    fault-injectable path; a round fires from a clock timer and runs
    with the clock frozen.
    """

    def __init__(self, overlay, params: DetectorParams = None, seed: int = 0xFD):
        super().__init__(params, seed)
        self.overlay = overlay
        self.network = overlay.network
        self._timer = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Arm the periodic detector round on the simulated clock."""
        if self._timer is None:
            self._timer = self.network.clock.schedule_every(
                self.params.period, self.tick
            )

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    # -- probing -----------------------------------------------------------

    @property
    def telemetry(self):
        return self.network.telemetry

    def _crashed_hosts(self) -> set:
        faults = self.network.faults
        return faults.crashed_hosts if faults is not None else set()

    def _runs_protocol(self, member: int) -> bool:
        """A member on a crashed host is a dead process."""
        return self.overlay.ecan.can.nodes[member].host not in self._crashed_hosts()

    def _ping(self, src: int, dst: int, indirect: bool = False) -> bool:
        """One charged liveness ping between two members' hosts.

        Attempts are *not* backed off on the shared simulated clock:
        all probers of a round act concurrently in a real deployment,
        and SWIM bounds the whole round by the protocol period, so
        serializing per-probe waits onto the global clock would stall
        every other timer for the duration of the round.
        """
        from repro.netsim.faults import ProbeTimeout

        nodes = self.overlay.ecan.can.nodes
        try:
            self.network.rtt(
                nodes[src].host,
                nodes[dst].host,
                category="fd_ping_req" if indirect else "fd_ping",
            )
        except ProbeTimeout:
            return False
        return True

    def _probe_target(self, prober: int, target: int, members: list) -> bool:
        """Answer :meth:`probe_script`'s requests with charged pings."""
        script = self.probe_script(prober, target, members)
        verdict = None
        try:
            while True:
                verdict = self._ping(*script.send(verdict))
        except StopIteration as done:
            return done.value

    # -- rounds ------------------------------------------------------------

    def tick(self) -> list:
        """One detector round; returns nodes confirmed dead this round.

        The whole round -- pings, ping-reqs, and any repairs triggered
        by a confirmed death -- runs with the clock frozen: its actors
        (every live prober, every survivor absorbing a zone) operate
        concurrently, and the protocol ``period`` is what bounds the
        round's duration, not the sum of their private retry waits.
        """
        with self.network.clock.frozen():
            with self.telemetry.phase("failure_detection"):
                return self._tick()

    def _tick(self) -> list:
        nodes = self.overlay.ecan.can.nodes
        members = sorted(nodes)
        pairs = self.plan_round(members, self._runs_protocol)
        verdicts = [self._probe_target(p, t, members) for p, t in pairs]
        confirmed = self.settle_round(
            pairs, verdicts, member_domains(self.overlay), self.network.faults
        )
        for target in confirmed:
            self.confirm_death(
                target, target not in nodes or not self._runs_protocol(target)
            )
        return confirmed

    # -- reconciliation support --------------------------------------------

    def reprobe_suspects(self) -> int:
        """Direct-ping every suspect from up to :data:`WITNESSES` + 1 live
        probers; any answer un-suspects (partition-heal refutation).
        Returns the number of suspicions cleared."""
        probers, suspects = self.reprobe_plan(
            sorted(self.overlay.ecan.can.nodes), self._runs_protocol
        )
        cleared = 0
        for target in suspects:
            if any(self._ping(prober, target) for prober in probers):
                cleared += self.refute(target)
        return cleared


class RecoveryManager:
    """Turns death verdicts and partition heals into repairs."""

    def __init__(self, overlay, detector: SwimCore):
        self.overlay = overlay
        self.detector = detector
        self.network = overlay.network
        #: corpses repaired (takeover completed)
        self.takeovers = 0
        #: expressway entries eagerly invalidated
        self.invalidated = 0
        #: map copies re-hosted from surviving replicas
        self.rehosted = 0
        #: records re-published for subjects after total copy loss
        self.republished = 0
        #: reconciliation passes run (partition heals)
        self.reconciliations = 0
        #: table entries, map records and index attributions repaired
        #: by self-stabilization scrub passes
        self.scrubbed = 0
        detector.on_death.append(self.handle_death)

    def watch_partitions(self) -> int:
        """Arm partition-heal reconciliation on every scheduled window."""
        faults = self.network.faults
        if faults is None:
            return 0
        return faults.watch_partitions(lambda _partition: self.reconcile())

    # -- crash takeover ----------------------------------------------------

    def handle_death(self, node_id: int) -> None:
        """Confirmed death: absorb zones, invalidate, purge, re-host."""
        overlay = self.overlay
        node = overlay.ecan.can.nodes.get(node_id)
        if node is None:
            return  # already departed (verdict raced a graceful leave)
        telemetry = self.network.telemetry
        with telemetry.phase("recovery"):
            # other current suspects are likely corpses too: never hand
            # the zones to one of them
            dead = set(self.detector.suspected) | {node_id}
            overlay.ecan.takeover_dead(node_id, dead=dead)
            self.takeovers += 1
            self.invalidated += overlay.ecan.invalidate_member(node_id)
            overlay.pubsub.unsubscribe_all(node_id)
            overlay.store.purge_record(node_id, charge=True)
            self.rehosted += overlay.store.rehost_from_replicas(node_id)
            overlay._used_hosts.discard(node.host)
            overlay._adaptive.discard(node_id)
            telemetry.count("recovery_takeover")

    # -- partition-heal reconciliation -------------------------------------

    def republish_lost(self) -> int:
        """Subjects of crash-lost records re-publish
        (:meth:`~repro.softstate.store.SoftStateStore.republish_lost`).
        Returns records restored.
        """
        restored = len(self.overlay.store.republish_lost())
        self.republished += restored
        return restored

    def purge_dead_references(self) -> int:
        """Purge map records whose subject is no longer a member."""
        overlay = self.overlay
        members = overlay.ecan.can.nodes
        stale = {
            node_id
            for bucket in overlay.store.maps.values()
            for node_id in bucket
            if node_id not in members
        }
        removed = 0
        for node_id in sorted(stale):
            removed += overlay.store.purge_record(node_id, charge=True)
        return removed

    def reconcile(self) -> dict:
        """Anti-entropy after a partition heals (or on demand).

        Generalizes the pub/sub anti-entropy round: missed
        notifications resync, suspects are re-probed and the live ones
        un-suspected, lost records are re-published by their subjects,
        and records naming dead members are purged.
        """
        telemetry = self.network.telemetry
        self.network.stats.count("recovery_reconcile")
        with self.network.clock.frozen(), telemetry.phase("reconcile"):
            summary = {
                "resynced": self.overlay.pubsub.resync_once(),
                "unsuspected": self.detector.reprobe_suspects(),
                "republished": self.republish_lost(),
                "purged": self.purge_dead_references(),
            }
        return self.reconciled(summary)

    def reconciled(self, summary: dict) -> dict:
        """Count one finished reconciliation pass, the simulator's or the
        live runtime's (:meth:`~repro.runtime.recovery.RuntimeRecovery.reconcile`),
        and return its ``summary``."""
        self.reconciliations += 1
        self.network.telemetry.count("reconcile")
        return summary

    # -- self-stabilization scrubs ------------------------------------------

    def scrub_tables(self) -> int:
        """Validate every expressway entry; re-select the broken ones.

        The eager sweep behind the self-stabilization claim: an
        adversarially scrambled entry -- pointing at a node that is not
        a member, or at a member whose zones no longer overlap the
        cell -- is caught and re-selected here rather than when a route
        trips over it.  Re-selection is charged through the usual
        neighbor-selection path; a cell with no eligible member left is
        dropped from the row so :func:`check_invariants` never sees a
        ghost.  Returns the number of entries repaired.
        """
        ecan = self.overlay.ecan
        members = ecan.can.nodes
        repaired = 0
        for node_id in sorted(ecan._tables):
            if node_id not in members:
                continue
            table = ecan._tables[node_id]
            for level in sorted(table):
                row = table[level]
                for cell in sorted(row):
                    entry = row[cell]
                    if entry in members and ecan._entry_valid_uncached(
                        entry, level, cell
                    ):
                        continue
                    if ecan.refresh_entry(node_id, level, cell) is None:
                        row.pop(cell, None)
                    repaired += 1
        return repaired

    def scrub_store(self) -> int:
        """Re-place map records that drifted off their computed position.

        A stored copy whose position or replica set no longer equals
        the pure placement function ``position_of(record, region)`` is
        stale -- whether through tampering or a missed migration.  Live
        subjects re-publish (restoring position, replicas and the owner
        index in one charged pass); records of departed subjects are
        purged.  Returns the number of subjects repaired.
        """
        store = self.overlay.store
        members = self.overlay.ecan.can.nodes
        stale = set()
        for region, bucket in store.maps.items():
            for node_id, stored in bucket.items():
                if stored.position != store.position_of(stored.record, region):
                    stale.add(node_id)
                elif stored.replicas != store.replica_positions(
                    stored.record, region
                ):
                    stale.add(node_id)
        for node_id in sorted(stale):
            if node_id in store.registry and node_id in members:
                store.publish(node_id)
            else:
                store.purge_record(node_id, charge=True)
        return len(stale)

    def scrub(self) -> dict:
        """One full anti-entropy scrub pass: tables, records, index.

        The periodic self-stabilization sweep the churn-soak harness
        drives between legitimacy checks; cheap when the state is
        already legitimate (pure validation, no writes).  Returns the
        per-structure repair counts.
        """
        telemetry = self.network.telemetry
        with self.network.clock.frozen(), telemetry.phase("scrub"):
            summary = {
                "tables": self.scrub_tables(),
                "records": self.scrub_store(),
                "index": self.overlay.store.rebuild_owner_index(),
            }
        self.scrubbed += sum(summary.values())
        if any(summary.values()):
            telemetry.count("scrub_repairs")
        return summary


def check_invariants(overlay, detector: SwimCore = None) -> dict:
    """Stack-wide structural invariants after a chaos scenario.

    Raises ``AssertionError`` on the first violation; returns a small
    summary dict when everything holds:

    * the CAN tessellation covers the space exactly once and neighbor
      links are symmetric and adjacent (``Can.check_invariants``);
    * the store's incremental position->owner index agrees with a
      brute-force re-resolution (``SoftStateStore.check_owner_index``);
    * eCAN's per-cell member lists and validity memo agree with a
      recount from the live zones (``EcanOverlay.check_member_index``,
      ``EcanOverlay.check_valid_memo``);
    * no member runs on a crashed host;
    * every map record belongs to a live member, sits at its correct
      :func:`~repro.softstate.maps.map_position`, and every copy is
      hosted by a live member on a live host;
    * the identity registry and expressway tables reference only live
      members;
    * no pub/sub subscription belongs to a departed node;
    * nothing the detector confirmed dead is still a member.
    """
    can = overlay.ecan.can
    can.check_invariants()
    members = can.nodes
    faults = overlay.network.faults
    crashed = faults.crashed_hosts if faults is not None else set()

    for node_id, node in members.items():
        assert node.host not in crashed, (
            f"member {node_id} runs on crashed host {node.host}"
        )

    store = overlay.store
    entries = 0
    for region, bucket in store.maps.items():
        for node_id, stored in bucket.items():
            entries += 1
            assert node_id in members, (
                f"map of {region} still holds a record for dead node {node_id}"
            )
            assert stored.record.host not in crashed, (
                f"record of {node_id} names crashed host {stored.record.host}"
            )
            assert stored.position == store.position_of(stored.record, region), (
                f"record of {node_id} sits at a stale position in {region}"
            )
            for position in (stored.position, *stored.replicas):
                owner = can.owner_of_point(position)
                assert owner in members, (
                    f"copy of {node_id}'s record is hosted by dead node {owner}"
                )
                assert members[owner].host not in crashed, (
                    f"copy of {node_id}'s record sits on a crashed host"
                )

    # the incremental position->owner index must agree with a brute-force
    # re-resolution over the live tessellation (checked after the map
    # record assertions so a tampered map fails with the specific message)
    store.check_owner_index()

    for node_id in store.registry:
        assert node_id in members, f"registry holds dead identity {node_id}"

    overlay.ecan.check_valid_memo()
    overlay.ecan.check_member_index()
    for node_id, table in overlay.ecan._tables.items():
        assert node_id in members, f"expressway table of dead node {node_id}"
        for row in table.values():
            for entry in row.values():
                assert entry in members, (
                    f"expressway entry of {node_id} points at dead node {entry}"
                )

    for sub in overlay.pubsub._by_id.values():
        assert sub.subscriber in members, (
            f"subscription {sub.sub_id} of departed node {sub.subscriber}"
        )

    if detector is not None:
        for node_id in detector.confirmed_dead:
            assert node_id not in members, (
                f"confirmed-dead node {node_id} is still a member"
            )

    return {
        "nodes": len(members),
        "map_entries": entries,
        "volume": can.total_volume(),
        "suspected": 0 if detector is None else len(detector.suspected),
    }


def detector_verdicts(detector: SwimCore, members) -> dict:
    """Per-member SWIM verdicts as the detector currently sees them.

    ``None`` means no detector is armed and every member reads as
    ``alive``.  Returns ``{node_id: verdict}`` over ``members`` where
    the verdict is ``"alive"``, ``"suspected"`` or ``"confirmed_dead"``
    -- the per-node health the management plane's ``/health`` endpoint
    surfaces.
    """
    suspected = {} if detector is None else detector.suspected
    confirmed = set() if detector is None else set(detector.confirmed_dead)
    verdicts = {}
    for node_id in members:
        node_id = int(node_id)
        if node_id in confirmed:
            verdicts[node_id] = "confirmed_dead"
        elif node_id in suspected:
            verdicts[node_id] = "suspected"
        else:
            verdicts[node_id] = "alive"
    return verdicts
