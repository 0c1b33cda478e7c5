"""Telemetry: one count map, gauges, phase timers, a sorted snapshot."""

import ast
import inspect
import json
import pathlib
import re

import pytest

from repro.core.telemetry import Telemetry
from repro.netsim.events import EventScheduler


class TestInstruments:
    def test_counters_and_gauges(self):
        telemetry = Telemetry()
        telemetry.count("backoff_ms", 12.5)
        telemetry.count("backoff_ms", 7.5)
        telemetry.gauge("overlay_size", 64)
        telemetry.gauge("overlay_size", 63)
        assert telemetry.events["backoff_ms"] == 20.0
        assert telemetry.gauges["overlay_size"] == 63

    def test_event_counts_always_kept(self):
        telemetry = Telemetry()
        telemetry.count("probe")
        telemetry.count("probe", 5)
        assert telemetry.events == {"probe": 6}

    def test_the_constructor_takes_a_clock_and_nothing_else(self):
        assert list(inspect.signature(Telemetry).parameters) == ["clock"]


class TestPhases:
    def test_phase_accumulates_sim_time(self):
        clock = EventScheduler()
        telemetry = Telemetry(clock=clock)
        with telemetry.phase("routing"):
            clock.advance(100.0)
        with telemetry.phase("routing"):
            clock.advance(50.0)
        acc = telemetry.phases["routing"]
        assert acc["sim_ms"] == 150.0
        assert acc["entries"] == 2
        assert acc["wall_s"] >= 0.0

    def test_phase_charges_on_exception(self):
        clock = EventScheduler()
        telemetry = Telemetry(clock=clock)
        with pytest.raises(RuntimeError):
            with telemetry.phase("build"):
                clock.advance(10.0)
                raise RuntimeError("boom")
        assert telemetry.phases["build"]["sim_ms"] == 10.0

    def test_distinct_phases_nest(self):
        clock = EventScheduler()
        telemetry = Telemetry(clock=clock)
        with telemetry.phase("outer"):
            clock.advance(5.0)
            with telemetry.phase("inner"):
                clock.advance(20.0)
        assert telemetry.phases["inner"]["sim_ms"] == 20.0
        assert telemetry.phases["outer"]["sim_ms"] == 25.0


class TestSnapshotOrdering:
    def test_snapshot_sections_are_sorted_by_name(self):
        """/metrics and bench JSON depend on a stable key order: the
        snapshot must come out sorted regardless of insertion order."""
        telemetry = Telemetry()
        for name in ("zeta", "alpha", "mid"):
            telemetry.count(name, 1.0)
            telemetry.gauge(name, 2)
            with telemetry.phase(name):
                pass
        snapshot = telemetry.snapshot()
        assert set(snapshot) == set(Telemetry().snapshot()) == {
            "events", "gauges", "phases"
        }
        for section in snapshot:
            keys = list(snapshot[section])
            assert keys == sorted(keys) == ["alpha", "mid", "zeta"]

    def test_snapshot_serialization_is_deterministic(self):
        def build(order):
            telemetry = Telemetry()
            for name in order:
                telemetry.count(name, 1.0)
                telemetry.gauge(name, 2)
            return telemetry

        first = build(["b", "a", "c"])
        second = build(["c", "b", "a"])
        assert json.dumps(first.snapshot()) == json.dumps(second.snapshot())


class TestNetworkIntegration:
    def test_probes_and_builds_are_charged(self, tiny_network):
        telemetry = tiny_network.telemetry
        before = telemetry.events["probe"]
        hosts = tiny_network.topology.stub_nodes()
        tiny_network.rtt(int(hosts[0]), int(hosts[1]))
        tiny_network.rtt_many(int(hosts[0]), hosts[:4])
        assert telemetry.events["probe"] - before == 5


REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]

#: ``count()`` sites whose name is computed: the expression, as written,
#: and every value it can take
COMPUTED_NAMES = {
    "self._HOP_EVENT[kind]": {"runtime_can_hop", "runtime_expressway_hop"},
}


def counted_names() -> set:
    """Every name ``src/repro`` passes to ``<...telemetry>.count(``."""
    names = set()
    for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "count"
                and ast.unparse(node.func.value).endswith("telemetry")
            ):
                name = node.args[0]
                if isinstance(name, ast.Constant):
                    names.add(name.value)
                else:
                    names |= COMPUTED_NAMES[ast.unparse(name)]
    return names


def test_design_md_tabulates_exactly_the_names_the_source_counts():
    """DESIGN.md section 7 is the one place a counted name is explained:
    its table's first column is the set of ``count()`` call-site names."""
    design = (REPO_ROOT / "DESIGN.md").read_text()
    table = design[design.index("| name | counted by | unit |"):]
    table = table[: table.index("\n\n")]
    rows = re.findall(r"^\s*\| `(\w+)` \|", table, flags=re.MULTILINE)
    assert len(rows) == len(set(rows)), "a name is tabulated twice"
    assert set(rows) == counted_names()
