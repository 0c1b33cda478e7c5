"""scripts/smoke.py: the gates and the runner (no cluster booted)."""

import importlib.util
import json
import pathlib
import re

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def smoke():
    path = REPO_ROOT / "scripts" / "smoke.py"
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LOAD = {"ops": 1000, "errors": 0, "parity_mismatches": 0}
SOAK = {"unconverged": [], "false_kills": 0, "false_purges": 0}
OVERLOAD = {
    "wall_shed": 1, "false_crashes": 0, "confirmed_dead": [],
    "detector_ticks_during_load": 1, "capacity_ops": 1000.0,
    "wall_throughput_ops": 500.0,
}  # fmt: skip
ENDPOINTS = {
    "page_status": 200, "page_has_svg": True, "non_json": [],
    "topology_status": 200, "topology_schema": 1, "members_without_zone_box": [],
    "expressways": 9, "stats_status": 200, "stats_missing": [],
    "metrics_status": 200, "metrics_parse_error": None, "metrics_missing": [],
    "health_schema": 1, "health_status": 200, "health": "healthy",
}  # fmt: skip

#: (scenario, step) -> a record every gate of that step accepts
HEALTHY = {
    ("chaos", "crash"): {
        "crashed": [3, 7], "confirmed": [3, 7], "false_kills": 0,
        "violation": None, "sweeps": 1,
    },
    ("chaos", "loss-only"): {"confirmed": [], "false_kills": 0, "violation": None},
    ("runtime", "json"): {**LOAD, "pump_tasks": 990},
    ("runtime", "packed"): {**LOAD, "pump_tasks": 990},
    ("runtime", "tcp"): {**LOAD, "reader_tasks": 0},
    ("shard", "shard"): {**LOAD, "wall_throughput_ops": 500.0, "frames_cross_shard": 1},
    ("soak", "sim"): SOAK,
    ("soak", "live"): {**SOAK, "wall_availability": 0.01},
    ("overload", "2x"): OVERLOAD,
    ("overload", "4x"): OVERLOAD,
    ("mgmt", "single"): {
        **ENDPOINTS,
        "nodes": 32, "shards": 1, "topology_members": 32, "topology_shards": 1,
        "stats_shards": 1, "stats_per_shard": 0, "recovery_state": "active",
        "victims": [1], "health_after_crash": "degraded", "down_after_crash": [1],
        "health_after_repair": "healthy", "members_after_repair": 31,
        "false_kills": 0, "counters_decreased": [],
    },
    ("mgmt", "sharded"): {
        **ENDPOINTS,
        "nodes": 16, "shards": 2, "topology_members": 16, "topology_shards": 2,
        "stats_shards": 2, "stats_per_shard": 2, "recovery_refused": True,
        "recovery_state": "unavailable (sharded)", "counters_decreased": [],
    },
}  # fmt: skip

LOAD_BAD = {
    "zero lookup errors": {"errors": 1},
    "zero parity mismatches": {"parity_mismatches": 1},
}
RUNTIME_BAD = {**LOAD_BAD, "every requested lookup driven": {"ops": 999}}
LOOPBACK_BAD = {
    **RUNTIME_BAD,
    "a hop never costs a task: pump tasks <= lookups driven": {"pump_tasks": 1001},
}
SOAK_BAD = {
    "every epoch converges within budget": {"unconverged": ["stale_replicas: x"]},
    "zero false kills": {"false_kills": 1},
    "zero false purges": {"false_purges": 1},
}
OVERLOAD_BAD = {
    "protection engaged: shed > 0": {"wall_shed": 0},
    "zero false crash verdicts": {"false_crashes": 1},
    "nobody confirmed dead": {"confirmed_dead": [2]},
    "detector ticked during saturation": {"detector_ticks_during_load": 0},
}
MONOTONE_BAD = {
    "no counter-typed sample decreased across the crash": {
        "counters_decreased": ["repro_overload_total{kind=busy_retries}"],
    },
}
ENDPOINTS_BAD = {
    "zone-map page serves an <svg>": {"page_has_svg": False},
    "/topology /stats /health are application/json": {"non_json": ["stats"]},
    "/topology answers 200": {"topology_status": 500},
    "/topology schema_version 1": {"topology_schema": 2},
    "/topology lists every member": {"topology_members": 15},
    "/topology shard count": {"topology_shards": 3},
    "every member has a zone box": {"members_without_zone_box": [4]},
    "/topology exports expressway links": {"expressways": 0},
    "/stats answers 200": {"stats_status": 404},
    "/stats has every section": {"stats_missing": ["overload"]},
    "/stats shard count": {"stats_shards": 3},
    "/stats per-shard breakdown when sharded": {"stats_per_shard": 1},
    "/metrics answers 200": {"metrics_status": 500},
    "/metrics parses as exposition text": {"metrics_parse_error": "line 3"},
    "/metrics has the core families": {"metrics_missing": ["repro_events_total"]},
    "/health schema_version 1": {"health_schema": None},
    "/health 200 healthy at boot": {"health_status": 503},
}

#: (scenario, step) -> gate label -> the fields that violate that gate alone
VIOLATIONS = {
    ("chaos", "crash"): {
        "confirmed == crashed": {"confirmed": [3]},
        "zero false kills": {"false_kills": 1},
        "invariants clean within 5 sweeps": {"violation": "orphan zone", "sweeps": 5},
    },
    ("chaos", "loss-only"): {
        "probe loss alone kills nobody": {"confirmed": [9]},
        "zero false kills": {"false_kills": 2},
        "invariants clean": {"violation": "index drift"},
    },
    ("runtime", "json"): LOOPBACK_BAD,
    ("runtime", "packed"): LOOPBACK_BAD,
    ("runtime", "tcp"): {
        **RUNTIME_BAD,
        "no reader task alive once the load has settled": {"reader_tasks": 1},
    },
    ("shard", "shard"): {
        **LOAD_BAD,
        "throughput >= 500 ops/s": {"wall_throughput_ops": 499.9},
        "cross-shard frames flowed": {"frames_cross_shard": 0},
    },
    ("soak", "sim"): SOAK_BAD,
    ("soak", "live"): {**SOAK_BAD, "availability > 0": {"wall_availability": 0.0}},
    ("overload", "2x"): {
        **OVERLOAD_BAD,
        "goodput >= 0.5x capacity": {"wall_throughput_ops": 499.0},
    },
    # safety only: a goodput ratio the 2x step would fail passes here
    ("overload", "4x"): OVERLOAD_BAD,
    ("mgmt", "single"): {
        **ENDPOINTS_BAD,
        # only a sharded harness owes the breakdown: claim two shards throughout
        "/stats per-shard breakdown when sharded": {
            "shards": 2, "topology_shards": 2, "stats_shards": 2, "stats_per_shard": 0,
        },
        "recovery active": {"recovery_state": "off"},
        "degraded within one probe period": {"health_after_crash": "healthy"},
        "degraded view lists every victim": {"down_after_crash": []},
        "healthy again within 20 s": {"health_after_repair": "degraded"},
        "post-repair membership == nodes - victims": {"members_after_repair": 32},
        "zero false kills": {"false_kills": 1},
        **MONOTONE_BAD,
    },
    ("mgmt", "sharded"): {
        **ENDPOINTS_BAD,
        **MONOTONE_BAD,
        "enable_recovery refuses with NotSupportedError": {"recovery_refused": False},
        "recovery unavailable (sharded)": {"recovery_state": "active"},
    },
}  # fmt: skip


def _steps(smoke):
    return {
        (name, step): gates
        for name, steps in smoke.SCENARIOS.items()
        for step, _, _, gates in steps
    }


def test_the_tables_here_cover_every_step_and_every_gate(smoke):
    steps = _steps(smoke)
    assert set(steps) == set(HEALTHY) == set(VIOLATIONS)
    for key, gates in steps.items():
        labels = [label for label, _ in gates]
        assert len(set(labels)) == len(labels), f"{key}: duplicate gate label"
        assert set(labels) == set(VIOLATIONS[key]), key
    distinct = {gate for gates in steps.values() for gate in gates}
    # the retired scripts' 47 (see CHANGES.md) + PR 22's reader-task gate
    # + PR 23's counters-never-decrease gate + PR 24's pump-task gate
    assert len(distinct) == 50


@pytest.mark.parametrize("key", sorted(HEALTHY), ids="/".join)
def test_healthy_record_passes_and_each_violation_names_its_gate(smoke, key):
    gates = _steps(smoke)[key]
    assert smoke.failed_gates(gates, HEALTHY[key]) == []
    for label, fields in VIOLATIONS[key].items():
        failed = smoke.failed_gates(gates, {**HEALTHY[key], **fields})
        assert len(failed) == 1 and failed[0].startswith(f"{label} ("), (label, failed)


def test_a_failure_shows_the_values_the_predicate_read(smoke):
    steps = _steps(smoke)
    record = {**OVERLOAD, "wall_throughput_ops": 120.0}
    assert smoke.failed_gates(steps[("overload", "2x")], record) == [
        "goodput >= 0.5x capacity (wall_throughput_ops=120.0, capacity_ops=1000.0)"
    ]
    assert smoke.failed_gates(steps[("overload", "4x")], record) == []


def test_thresholds_sit_exactly_where_the_retired_scripts_had_them(smoke):
    assert smoke.SHARD_MIN_THROUGHPUT == 500.0 and smoke.GOODPUT_FLOOR == 0.5
    assert smoke.CHAOS_MAX_SWEEPS == 5 and smoke.MGMT_REPAIR_BUDGET_S == 20.0
    assert smoke.MGMT_PROBE_PERIOD_S == 0.1
    assert [(n, [s[2] for s in steps]) for n, steps in smoke.SCENARIOS.items()] == [
        ("chaos", [(0, 1, 2), (0, 1, 2)]),
        ("runtime", [(0,), (0,), (0,)]),
        ("shard", [(0,)]),
        ("soak", [(0,), (0,)]),
        ("overload", [(0,), (0,)]),
        ("mgmt", [(3,), (3,)]),
    ]


@pytest.fixture
def fake_scenarios(smoke, monkeypatch):
    """Three stand-in scenarios: one raises, one fails a gate, one passes."""
    calls = []

    def boom(seed):
        calls.append(("boom", seed))
        raise RuntimeError("transport fell over")

    def plain(seed):
        calls.append(("plain", seed))
        return {"errors": seed}

    async def live(seed):
        calls.append(("live", seed))
        return {"errors": 0}

    gates = (("zero errors", lambda r: r["errors"] == 0),)
    monkeypatch.setattr(
        smoke,
        "SCENARIOS",
        {
            "boom": (("a", boom, (0,), gates), ("b", plain, (0,), gates)),
            "bad": (("only", plain, (0, 4), gates),),
            "good": (("only", live, (0,), gates),),
        },
    )
    return calls


def test_a_raise_or_failed_gate_fails_the_run_but_skips_nothing(
    smoke, fake_scenarios, tmp_path, capsys
):
    assert smoke.main(["--out", str(tmp_path)]) == 1
    assert fake_scenarios == [
        ("boom", 0), ("plain", 0), ("plain", 0), ("plain", 4), ("live", 0)
    ]  # fmt: skip
    records = {p.stem: json.loads(p.read_text()) for p in tmp_path.iterdir()}
    assert sorted(records) == ["bad", "boom", "good"]
    assert records["boom"]["failed"] == [
        "a seed 0: raised RuntimeError: transport fell over"
    ]
    assert [run["step"] for run in records["boom"]["runs"]] == ["b"]
    assert records["bad"]["failed"] == ["only seed 4: zero errors (errors=4)"]
    assert [records[name]["ok"] for name in ("boom", "bad", "good")] == [
        False, False, True
    ]  # fmt: skip
    out = capsys.readouterr().out
    assert "FAIL bad/only seed 4: zero errors (errors=4)" in out
    assert "FAIL boom/a seed 0: raised RuntimeError" in out


def test_named_scenarios_only_and_zero_exit_when_all_pass(
    smoke, fake_scenarios, tmp_path
):
    assert smoke.main(["good", "--out", str(tmp_path)]) == 0
    assert fake_scenarios == [("live", 0)]
    assert [p.name for p in tmp_path.iterdir()] == ["good.json"]
    with pytest.raises(SystemExit) as refused:
        smoke.main(["nope", "--out", str(tmp_path)])
    assert refused.value.code == 2


def test_every_scenario_named_by_make_and_ci_exists(smoke):
    mentioned = set()
    for path in ("Makefile", ".github/workflows/ci.yml"):
        text = (REPO_ROOT / path).read_text()
        assert "smoke.py" in text or "make smoke" in text
        mentioned.update(re.findall(r"SCENARIO=(\w+)", text))
        for args in re.findall(r"smoke\.py((?: +[a-z][\w-]*)+)", text):
            mentioned.update(args.split())
        names = re.search(r"name: Acceptance scenarios \((.*)\)", text)
        if names:
            assert names.group(1).split(", ") == list(smoke.SCENARIOS)
    assert {"shard", "runtime"} <= mentioned <= set(smoke.SCENARIOS)
