"""Bench records: shape validation, byte-stable emission, no registry."""

import gc
import importlib.util
import json
import math
import pathlib
import weakref

import numpy as np
import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


def load_module(relative):
    path = REPO_ROOT / relative
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def report():
    return load_module("scripts/bench_report.py")


@pytest.fixture(scope="module")
def common():
    return load_module("benchmarks/_common.py")


def make_record(name="fig00_demo", seed=0):
    rows = [
        {"probes": 1, "mean_stretch": 2.5},
        {"probes": 8, "mean_stretch": 1.2},
    ]
    return {
        "schema_version": 1,
        "name": name,
        "title": "demo",
        "params": {"scale": "quick"},
        "seed": seed,
        "rows": rows,
        "summary": {
            "mean_stretch": {"mean": 1.85, "lo": 1.2, "hi": 2.5, "n": 2}
        },
    }


class TestValidator:
    def test_valid_record_passes(self, report):
        assert report.check_record(make_record()) == []

    def test_missing_key_and_wrong_type_flagged(self, report):
        record = make_record()
        del record["rows"]
        record["seed"] = "zero"
        errors = report.check_record(record)
        assert any("rows" in e for e in errors)
        assert any("seed" in e for e in errors)

    def test_bool_is_not_a_number(self, report):
        record = make_record()
        record["summary"]["mean_stretch"]["n"] = True
        assert report.check_record(record)
        assert report.check_record(dict(make_record(), seed=False))

    @pytest.mark.parametrize(
        "field", ["message_stats", "telemetry", "sim_ms", "wall_s"]
    )
    def test_fields_that_never_reproduced_are_refused(self, report, field):
        errors = report.check_record(dict(make_record(), **{field: 0}))
        assert errors == [f"unexpected key {field!r}"]

    def test_wall_key_at_any_depth_is_refused(self, report):
        record = make_record()
        record["rows"][1]["wall_p50_ms"] = 0.4
        record["params"]["wall_codec_s"] = 0.01
        errors = report.check_record(record)
        assert len(errors) == 2
        assert any("$.rows[1].wall_p50_ms" in e for e in errors)

    def test_every_committed_record_is_valid(self, report):
        """Also the proof that none carries a ``wall*`` key or one of
        the four removed fields: ``check_record`` refuses both."""
        for out_dir in report.RECORD_DIRS:
            records = report.load_records(out_dir)
            assert len(records) == 27, out_dir
            for name, record in records.items():
                assert record["name"] == name
                assert report.check_record(record) == [], (out_dir.name, name)


class TestStripWall:
    def test_removes_wall_keys_recursively(self, common):
        record = make_record()
        record["params"]["wall_codec_s"] = 0.1
        record["rows"][0]["wall_boot_s_per_shard"] = [0.1, 0.2]
        record["summary"]["wall_p50_ms"] = {"mean": 1, "lo": 1, "hi": 1, "n": 1}
        assert common.drop_wall(record) == make_record()

    def test_same_seed_records_identical_modulo_wall(self, common):
        a, b = make_record(), make_record()
        b["rows"][1]["wall_p50_ms"] = 99.9
        b["params"]["wall_codec_s"] = 1.5
        assert common.canonical_json(
            common.drop_wall(b)
        ) == common.canonical_json(a)


class TestEmitRecord:
    def test_jsonable_sanitizes(self, common):
        value = common._jsonable(
            {
                "inf": math.inf,
                "np_int": np.int64(3),
                "np_float": np.float64(1.5),
                "np_bool": np.bool_(True),
                "nested": [np.nan, (1, 2)],
            }
        )
        assert value == {
            "inf": None,
            "np_int": 3,
            "np_float": 1.5,
            "np_bool": True,
            "nested": [None, [1, 2]],
        }
        json.dumps(value, allow_nan=False)  # must not raise

    def test_summarize_rows_deterministic(self, common):
        rows = [{"x": float(i), "label": "a"} for i in range(10)]
        first = common.summarize_rows(rows, seed=3)
        second = common.summarize_rows(rows, seed=3)
        assert first == second
        assert first["x"]["lo"] <= first["x"]["mean"] <= first["x"]["hi"]
        assert "label" not in first  # non-numeric columns skipped

    def test_summarize_rows_skips_non_finite(self, common):
        rows = [{"x": 1.0}, {"x": math.inf}, {"x": None}, {"x": 2.0}]
        summary = common.summarize_rows(rows)
        assert summary["x"]["n"] == 2

    def test_emit_writes_valid_record(self, common, report, tmp_path, capsys):
        """Two runs that differ only in their wall-clock columns write
        the same bytes: the JSON drops every ``wall*`` key (rows,
        params and summary alike); the table is printed, not written."""
        written = []
        for run, wall in enumerate((0.25, 0.75)):
            rows = [
                {"probes": 1, "wall_build_s": wall, "mean_stretch": 2.0},
                {"probes": 8, "wall_build_s": 2 * wall, "mean_stretch": 1.5},
            ]
            record = {
                "name": "fig00_demo",
                "title": "demo",
                "params": {"scale": "quick", "wall_codec_s": wall},
                "seed": 0,
                "rows": rows,
            }
            common.emit(record, f"== demo ==\n1 {wall}", tmp_path / str(run))
            assert capsys.readouterr().out == f"\n== demo ==\n1 {wall}\n\n"
            assert [p.name for p in (tmp_path / str(run)).iterdir()] == [
                "fig00_demo.json"
            ]
            written.append((tmp_path / str(run) / "fig00_demo.json").read_bytes())
        assert written[0] == written[1]
        record = json.loads(written[0])
        assert report.check_record(record) == []
        assert report.wall_keys(record) == []
        assert set(record["summary"]) == {"probes", "mean_stretch"}
        assert record["params"] == {"scale": "quick"}
        # the surviving intervals are the ones drawn with the wall
        # column in place, so stripping a parent record equals a re-run
        assert record["summary"] == common.drop_wall(
            common.summarize_rows(rows, seed=0)
        )


def test_networks_are_not_registered_anywhere():
    """No process-wide registry, weak or strong: nothing else refers to
    a fresh Network, and dropping it frees it."""
    from repro.core.config import NetworkParams, make_network

    nets = [
        make_network(NetworkParams(topo_scale=0.25, seed=seed))
        for seed in (0, 1)
    ]
    # a weakly held registry (the removed WeakSet) would show up here ...
    assert [weakref.getweakrefcount(net) for net in nets] == [0, 0]
    freed = []
    for seed, net in enumerate(nets):
        weakref.finalize(net, freed.append, seed)
    del net
    nets.clear()
    gc.collect()
    # ... and a strongly held one here
    assert sorted(freed) == [0, 1]
