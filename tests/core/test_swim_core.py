"""The SWIM state machine on its own: scripted verdicts, no clock, no loop.

:class:`SwimCore` is what the simulator's ``FailureDetector`` and the
live runtime's ``RuntimeRecovery`` both are underneath, so every rule
pinned here (rotation, lazy witness draw, tri-state settlement,
partition shielding, confirm bookkeeping) holds for both adapters.
"""

import pytest

from repro.core.recovery import WITNESSES, DetectorParams, SwimCore
from repro.netsim.faults import Partition

MEMBERS = [2, 3, 5, 7, 11, 13]
TARGET = 7


class ScriptedFaults:
    """Just the one thing the core asks an injector."""

    def __init__(self, *partitions):
        self.partitions = list(partitions)

    def active_partitions(self):
        return self.partitions


def drive(script, answer):
    """Feed one probe script from ``answer(src, dst, indirect)``."""
    verdict = None
    try:
        while True:
            verdict = answer(*script.send(verdict))
    except StopIteration as done:
        return done.value


def run_round(core, answer, members=MEMBERS, down=(), domain_of=None, faults=None):
    """One full round; ``down`` members run no protocol and stay silent
    as far as ground truth goes.  Returns ``(pairs, confirmed)``."""
    pairs = core.plan_round(members, lambda m: m not in down)
    verdicts = [drive(core.probe_script(p, t, members), answer) for p, t in pairs]
    confirmed = core.settle_round(
        pairs, verdicts, domain_of or (lambda m: m % 2), faults
    )
    for target in confirmed:
        core.confirm_death(target, genuinely_dead=target in down)
    return pairs, confirmed


def everyone_but(target, verdict):
    """Every probe answers, except that probes of ``target`` get ``verdict``."""
    return lambda src, dst, indirect: verdict if dst == target else True


class TestRotation:
    @pytest.mark.parametrize("size", [2, 3, 6, 9])
    def test_every_member_probed_once_and_never_by_itself(self, size):
        members = list(range(10, 10 + size))
        core = SwimCore()
        seen = set()
        for _ in range(2 * size):
            pairs, _ = run_round(core, lambda *probe: True, members=members)
            assert sorted(t for _, t in pairs) == members
            assert sorted(p for p, _ in pairs) == members
            assert all(p != t for p, t in pairs)
            seen.update(pairs)
        # the shift walks the whole ring: everyone probes everyone else
        assert len(seen) == size * (size - 1)

    def test_dead_members_run_no_protocol_but_stay_probed(self):
        core = SwimCore()
        pairs, _ = run_round(core, lambda *probe: True, down={TARGET})
        assert TARGET not in [p for p, _ in pairs]
        assert TARGET in [t for _, t in pairs]

    def test_a_lone_member_has_nobody_to_probe(self):
        core = SwimCore()
        assert core.plan_round([4], lambda m: True) == []
        assert core.rounds == 1


class TestProbeScript:
    def test_witnesses_are_drawn_only_after_direct_silence(self):
        core = SwimCore(seed=1)
        before = core.rng.bit_generator.state
        asked = []

        def answer(src, dst, indirect):
            asked.append((src, dst, indirect))
            return True

        assert drive(core.probe_script(2, TARGET, MEMBERS), answer) is True
        assert asked == [(2, TARGET, False)]
        assert core.rng.bit_generator.state == before  # no draw was needed

    def test_silence_goes_through_every_attempt_then_the_witnesses(self):
        core = SwimCore(seed=1)
        core.suspected[13] = 1  # a suspect is never asked to witness
        asked = []

        def answer(src, dst, indirect):
            asked.append((src, dst, indirect))
            return False

        assert drive(core.probe_script(2, TARGET, MEMBERS), answer) is False
        assert asked[:2] == [(2, TARGET, False)] * 2
        witnesses = asked[2:]
        assert len(witnesses) == 3
        assert all(dst == TARGET and indirect for _, dst, indirect in witnesses)
        assert {src for src, _, _ in witnesses} <= {3, 5, 11}
        assert len({src for src, _, _ in witnesses}) == 3

    def test_one_witness_answer_is_enough(self):
        core = SwimCore(seed=1)
        assert (
            drive(
                core.probe_script(2, TARGET, MEMBERS),
                lambda src, dst, indirect: indirect,
            )
            is True
        )

    def test_all_abstained_is_no_evidence(self):
        core = SwimCore()
        assert drive(core.probe_script(2, TARGET, MEMBERS), lambda *p: None) is None


#: (verdicts TARGET's probes get round by round, ledger after each
#: round, rounds in which TARGET is confirmed, refutations at the end)
#: under the default ``suspicion_periods=2``
SETTLEMENT = {
    "clean silence confirms after suspicion_periods + 1 rounds": (
        [False, False, False], [1, 2, None], [3], 0,
    ),
    "an abstained round leaves the ledger untouched": (
        [False, None, None, False], [1, 1, 1, 2], [], 0,
    ),
    "all-None rounds never start a suspicion": (
        [None, None, None, None], [None, None, None, None], [], 0,
    ),
    "one answer refutes": (
        [False, False, True, False], [1, 2, None, 1], [], 1,
    ),
}


class TestSettlement:
    @pytest.mark.parametrize("case", SETTLEMENT)
    def test_ledger_follows_the_scripted_verdicts(self, case):
        script, ledger, confirm_rounds, refutations = SETTLEMENT[case]
        core = SwimCore()
        deaths = []
        core.on_death.append(deaths.append)
        for round_no, (verdict, expected) in enumerate(zip(script, ledger), 1):
            _, confirmed = run_round(
                core, everyone_but(TARGET, verdict), down={TARGET}
            )
            assert core.suspected.get(TARGET) == expected, (case, round_no)
            assert confirmed == ([TARGET] if round_no in confirm_rounds else [])
        assert core.refutations == refutations
        assert core.confirmed_dead == deaths == [TARGET] * len(confirm_rounds)
        assert core.false_kills == 0

    def test_confirming_a_live_member_counts_as_a_false_kill(self):
        core = SwimCore(DetectorParams(suspicion_periods=0))
        _, confirmed = run_round(core, everyone_but(TARGET, False))
        assert confirmed == [TARGET]
        assert core.false_kills == 1

    def test_active_partition_holds_the_verdict(self):
        core = SwimCore(DetectorParams(suspicion_periods=1))
        # TARGET's domain (7 % 2 == 1) sits inside the partitioned set
        faults = ScriptedFaults(Partition(0.0, 10.0, (1,)))
        for _ in range(4):
            _, confirmed = run_round(
                core, everyone_but(TARGET, False), down={TARGET}, faults=faults
            )
            assert confirmed == []
        assert core.shielded_verdicts == 3  # rounds 2, 3 and 4 were over the bar
        assert core.suspected[TARGET] == 4
        faults.partitions.clear()  # healed: the very next silence confirms
        _, confirmed = run_round(
            core, everyone_but(TARGET, False), down={TARGET}, faults=faults
        )
        assert confirmed == [TARGET]

    def test_departed_target_is_skipped(self):
        core = SwimCore(DetectorParams(suspicion_periods=0))
        _, confirmed = run_round(
            core,
            everyone_but(TARGET, False),
            domain_of=lambda m: None if m == TARGET else 0,
        )
        assert confirmed == []
        assert core.suspected == {}


class TestReprobePlan:
    def test_drops_departed_suspects_and_caps_the_probers(self):
        core = SwimCore()
        core.suspected.update({TARGET: 2, 99: 1, 3: 1})
        members = MEMBERS + [17, 19, 23]
        probers, suspects = core.reprobe_plan(members, lambda m: m != 2)
        assert suspects == [TARGET, 3]  # 99 left the membership
        assert 99 not in core.suspected
        # live, unsuspected, WITNESSES + 1 of them
        assert WITNESSES == 3 and probers == [5, 11, 13, 17]
        assert core.refute(TARGET) and not core.refute(TARGET)
        assert core.refutations == 1
