"""Telemetry: counters, phase timers, trace events, JSON round trip."""

import json

import pytest

from repro.core.telemetry import Telemetry, TraceEvent
from repro.netsim.events import EventScheduler


class TestInstruments:
    def test_counters_and_gauges(self):
        telemetry = Telemetry()
        telemetry.count("backoff_ms", 12.5)
        telemetry.count("backoff_ms", 7.5)
        telemetry.gauge("overlay_size", 64)
        telemetry.gauge("overlay_size", 63)
        assert telemetry.counters["backoff_ms"] == 20.0
        assert telemetry.gauges["overlay_size"] == 63

    def test_event_counts_always_kept(self):
        telemetry = Telemetry()
        telemetry.emit("probe", category="rtt_probe")
        telemetry.emit("probe", n=5, category="rtt_probe")
        assert telemetry.event_counts["probe"] == 6
        # tracing is opt-in: no TraceEvents without it
        assert telemetry.events == []

    def test_tracing_records_sim_time_and_fields(self):
        clock = EventScheduler()
        telemetry = Telemetry(clock=clock, tracing=True)
        clock.advance(25.0)
        telemetry.emit("purge", node_id=3, policy="periodic")
        (event,) = telemetry.events
        assert isinstance(event, TraceEvent)
        assert event.kind == "purge"
        assert event.time == 25.0
        assert event.fields == {"node_id": 3, "policy": "periodic"}

    def test_trace_buffer_bounded(self):
        telemetry = Telemetry(tracing=True, trace_limit=3)
        for i in range(5):
            telemetry.emit("hop", i=i)
        assert len(telemetry.events) == 3
        assert telemetry.dropped_events == 2
        assert telemetry.event_counts["hop"] == 5


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


class TestRoundTrip:
    def build(self):
        clock = EventScheduler()
        telemetry = Telemetry(clock=clock, tracing=True)
        telemetry.count("backoff_ms", 42.0)
        telemetry.gauge("overlay_size", 7)
        clock.advance(5.0)
        telemetry.emit("probe", category="rtt_probe", u=1, v=2)
        with telemetry.phase("maintenance"):
            clock.advance(60.0)
        return telemetry

    def test_emit_to_json_and_reload(self):
        telemetry = self.build()
        reloaded = Telemetry.from_json(telemetry.to_json())
        assert reloaded.snapshot() == telemetry.snapshot()
        assert reloaded.counters["backoff_ms"] == 42.0
        assert reloaded.event_counts["probe"] == 1
        assert reloaded.events[0].fields == {"category": "rtt_probe", "u": 1, "v": 2}

    def test_json_is_valid_and_sorted(self):
        text = self.build().to_json(indent=2)
        data = json.loads(text)
        assert data["events"] == {"probe": 1}
        # canonical: re-dumping with sorted keys is a fixpoint
        assert json.dumps(data, sort_keys=True, indent=2) == text


class TestSnapshotOrdering:
    def test_snapshot_sections_are_sorted_by_name(self):
        """/metrics and bench JSON depend on a stable key order: the
        snapshot must come out sorted regardless of insertion order."""
        telemetry = Telemetry()
        for name in ("zeta", "alpha", "mid"):
            telemetry.count(name, 1.0)
            telemetry.gauge(name, 2)
            telemetry.emit(name)
            with telemetry.phase(name):
                pass
        snapshot = telemetry.snapshot()
        for section in ("counters", "gauges", "events", "phases"):
            keys = list(snapshot[section])
            assert keys == sorted(keys) == ["alpha", "mid", "zeta"]

    def test_snapshot_serialization_is_deterministic(self):
        def build(order):
            telemetry = Telemetry()
            for name in order:
                telemetry.count(name, 1.0)
                telemetry.emit(name)
            return telemetry

        first = build(["b", "a", "c"])
        second = build(["c", "b", "a"])
        assert json.dumps(first.snapshot()) == json.dumps(second.snapshot())


class TestNetworkIntegration:
    def test_probes_and_builds_are_charged(self, tiny_network):
        telemetry = tiny_network.telemetry
        before = telemetry.event_counts["probe"]
        hosts = tiny_network.topology.stub_nodes()
        tiny_network.rtt(int(hosts[0]), int(hosts[1]))
        tiny_network.rtt_many(int(hosts[0]), hosts[:4])
        assert telemetry.event_counts["probe"] - before == 5
