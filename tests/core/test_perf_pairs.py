"""scripts/perf_pairs.py: the pairs rule itself (no benchmark runs)."""

import importlib.util
import os
import pathlib
import signal
import subprocess
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def pairs():
    path = REPO_ROOT / "scripts" / "perf_pairs.py"
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BASE = [95.0, 94.0, 96.0, 95.5, 94.5, 95.2, 94.8, 95.1, 96.2, 94.1]


def test_clear_gain_on_a_lower_is_better_metric(pairs):
    verdict = pairs.judge(BASE, [b - 15.0 for b in BASE], "lower")
    assert verdict["wins"] == 10 and verdict["ties"] == 0
    assert verdict["gain_shown"]
    assert verdict["median_gain"] == pytest.approx(15.0)


def test_direction_flips_for_higher_is_better(pairs):
    faster = [b + 15.0 for b in BASE]
    assert pairs.judge(BASE, faster, "higher")["gain_shown"]
    assert not pairs.judge(BASE, faster, "lower")["gain_shown"]
    assert pairs.judge(BASE, faster, "lower")["losses"] == 10


def test_two_losses_in_ten_is_not_nine_tenths(pairs):
    change = [b - 15.0 for b in BASE]
    change[3] = BASE[3] + 1.0
    assert pairs.judge(BASE, change, "lower")["gain_shown"]  # 9/10 still passes
    change[7] = BASE[7] + 1.0
    verdict = pairs.judge(BASE, change, "lower")
    assert verdict["wins"] == 8 and not verdict["enough_wins"]
    assert not verdict["gain_shown"]


def test_ties_count_for_neither_side(pairs):
    change = [b - 15.0 for b in BASE]
    change[0], change[1] = BASE[0], BASE[1]
    verdict = pairs.judge(BASE, change, "lower")
    assert (verdict["wins"], verdict["ties"], verdict["losses"]) == (8, 2, 0)
    assert not verdict["gain_shown"]


def test_gain_inside_the_parents_own_spread_is_not_shown(pairs):
    verdict = pairs.judge(BASE, [b - 0.5 for b in BASE], "lower")
    assert verdict["wins"] == 10 and verdict["enough_wins"]
    assert verdict["base_iqr"] > 0.5
    assert not verdict["clear_of_spread"] and not verdict["gain_shown"]


def test_undeclared_metric_is_refused(pairs):
    assert pairs.direction_of("cpu_us_per_op") == "lower"
    assert pairs.direction_of("ops_per_s_ref") == "higher"
    with pytest.raises(SystemExit):
        pairs.direction_of("wire.fallback_share")


def test_bound_check_allows_a_worsening_inside_the_bound(pairs):
    slower = [b * 1.10 for b in BASE]
    check = pairs.bound_check(BASE, slower, "lower", 0.25)
    assert not check["worse"]
    assert check["ratio"] == pytest.approx(1.10)
    assert pairs.bound_check(BASE, [b * 1.30 for b in BASE], "lower", 0.25)["worse"]


def test_bound_check_follows_the_metric_direction(pairs):
    # 30 % fewer ops/s is worse; 30 % more is a gain, never a regression
    assert pairs.bound_check(BASE, [b * 0.70 for b in BASE], "higher", 0.25)["worse"]
    assert not pairs.bound_check(BASE, [b * 1.30 for b in BASE], "higher", 0.25)["worse"]
    assert not pairs.bound_check(BASE, [b * 0.50 for b in BASE], "lower", 0.25)["worse"]


def test_bound_zero_means_the_median_may_not_worsen_at_all(pairs):
    stretch = [1.8125] * 10
    assert not pairs.bound_check(stretch, stretch, "lower", 0)["worse"]
    assert pairs.bound_check(stretch, [1.8126] * 10, "lower", 0)["worse"]
    assert not pairs.bound_check(stretch, [1.8] * 10, "lower", 0)["worse"]


def test_every_declared_metric_carries_a_bound(pairs):
    declared = pairs.declared_metrics()
    assert {entry["name"] for entry in declared} >= {"cpu_us_per_op", "mean_stretch"}
    assert all("bound" in entry and "better" in entry for entry in declared)


def test_also_names_other_declared_workloads_in_declared_order(pairs):
    declared = pairs.declared_workloads()
    assert "sim_route" in declared and "live_lookup_closed" in declared
    everything_else = [name for name in declared if name != "sim_route"]
    assert pairs.expand_also(["all"], "sim_route") == everything_else
    # repeats, the claimed workload itself and declared order are all handled
    picked = pairs.expand_also(
        ["sim_build", "live_lookup_closed", "sim_route", "sim_build"], "sim_route"
    )
    assert picked == [
        name for name in declared if name in {"sim_build", "live_lookup_closed"}
    ]
    assert pairs.expand_also([], "sim_route") == []
    with pytest.raises(SystemExit):
        pairs.expand_also(["sim_rout"], "sim_route")


def test_first_seed_moves_the_seeds_and_keeps_the_alternation(pairs, monkeypatch):
    ran = []

    def measure(tree, workload, seed):
        side = "base" if tree == "base-tree" else "change"
        ran.append((seed, side))
        return {"cpu_us_per_op": float(seed)}

    monkeypatch.setattr(pairs, "measure", measure)
    base, change = pairs.run_pairs("base-tree", "sim_build", "cpu_us_per_op", 3, 101)
    assert ran == [
        (101, "base"), (101, "change"),
        (102, "change"), (102, "base"),
        (103, "base"), (103, "change"),
    ]
    assert [run["cpu_us_per_op"] for run in base] == [101.0, 102.0, 103.0]
    assert [run["cpu_us_per_op"] for run in change] == [101.0, 102.0, 103.0]


def fake_main(pairs, monkeypatch, change_of, argv=()) -> int:
    """``main`` on canned pairs: every declared metric reads ``BASE`` on
    the base side and ``change_of(workload, metric, value)`` on the
    change side; nothing is exported or run."""
    names = [entry["name"] for entry in pairs.declared_metrics()]

    def run_pairs(base_tree, workload, metric, count, first_seed):
        base = [{name: value for name in names} for value in BASE[:count]]
        change = [
            {name: change_of(workload, name, value) for name in names}
            for value in BASE[:count]
        ]
        return base, change

    monkeypatch.setattr(pairs, "export_base", lambda rev, target: None)
    monkeypatch.setattr(pairs, "run_pairs", run_pairs)
    monkeypatch.setattr(
        "sys.argv",
        ["perf_pairs.py", "--base", "HEAD~1", "--workload", "sim_route",
         "--metric", "cpu_us_per_op", *argv],
    )
    return pairs.main()


@pytest.mark.parametrize(
    ("case", "change_of", "status"),
    [
        ("gain shown, nothing worse",
         lambda w, m, v: v - 15.0 if m == "cpu_us_per_op" else v, 0),
        ("gain shown, another workload worse",
         lambda w, m, v: v - 15.0 if m == "cpu_us_per_op"
         else v * 1.3 if (w, m) == ("sim_build", "p50_ms") else v, 1),
        ("the claimed metric itself worse than its bound",
         lambda w, m, v: v * 1.3 if m == "cpu_us_per_op" else v, 1),
        ("nothing worse, gain not shown", lambda w, m, v: v, 3),
        ("nothing worse, gain inside the parent's spread",
         lambda w, m, v: v - 0.5 if m == "cpu_us_per_op" else v, 3),
    ],
)
def test_exit_status_separates_regression_from_no_gain(
    pairs, monkeypatch, capsys, case, change_of, status
):
    assert fake_main(
        pairs, monkeypatch, change_of, ["--also", "sim_build"]
    ) == status, case
    out = capsys.readouterr().out
    # the claimed metric has its own bound row on the claimed workload
    assert out.count("| cpu_us_per_op |") == 2
    assert ("worse than its bound:" in out) == (status == 1)


def test_layers_print_three_traced_runs_per_side_after_the_pairs(
    pairs, monkeypatch, capsys
):
    traced = []

    def measure(tree, workload, seed, trace=0):
        assert trace == 1, "the pairs themselves are not run here"
        side = "change" if tree == pairs.ROOT else "base"
        traced.append((side, workload, seed))
        scale = 1.0 if side == "base" else 0.5
        # the middle seed is an outlier on both sides: the median skips it
        swing = 1.7 if seed == 8 else 1.0
        return {"ecan.route_us": 20.0 * scale * swing, "store.self_us_per_op": 8.0}

    monkeypatch.setattr(pairs, "measure", measure)
    status = fake_main(
        pairs, monkeypatch, lambda w, m, v: v,
        ["--first-seed", "7", "--layers", "ecan.route_us", "store.self_us_per_op"],
    )
    assert status == 3
    assert traced == [
        ("base", "sim_route", 7), ("change", "sim_route", 7),
        ("change", "sim_route", 8), ("base", "sim_route", 8),
        ("base", "sim_route", 9), ("change", "sim_route", 9),
    ]
    out = capsys.readouterr().out
    table = out[out.index("# per-layer metrics of sim_route"):]
    assert "3 traced runs per side, seeds 7..9" in table
    assert "one traced run per side" not in out
    assert (
        "| metric | base s7 | base s8 | base s9 | change s7 | change s8 | change s9 "
        "| base median | change median | change/base |"
    ) in table
    assert "| ecan.route_us | 20 | 34 | 20 | 10 | 17 | 10 | 20 | 10 | 0.500 |" in table
    assert "| store.self_us_per_op | 8 | 8 | 8 | 8 | 8 | 8 | 8 | 8 | 1.000 |" in table


def test_sigterm_removes_the_base_export(tmp_path):
    """Stopped by SIGTERM mid-run, ``main`` unwinds and its
    ``perf_pairs_*`` export of the base tree is gone."""
    script = REPO_ROOT / "scripts" / "perf_pairs.py"
    code = f"""
import importlib.util, sys, time
spec = importlib.util.spec_from_file_location("perf_pairs", {str(script)!r})
pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(pairs)

def export_base(rev, target):
    (target / "exported").write_text(rev)

def run_pairs(*args):
    print("running", flush=True)
    time.sleep(60)

pairs.export_base = export_base
pairs.run_pairs = run_pairs
sys.argv = ["perf_pairs.py", "--base", "HEAD~1", "--workload", "sim_route",
            "--metric", "cpu_us_per_op"]
sys.exit(pairs.main())
"""
    proc = subprocess.Popen(
        [sys.executable, "-c", code],
        env={**os.environ, "TMPDIR": str(tmp_path)},
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        assert "running\n" in iter(proc.stdout.readline, "")
        assert len(list(tmp_path.glob("perf_pairs_*/exported"))) == 1
        proc.send_signal(signal.SIGTERM)
        proc.wait(timeout=30)
    finally:
        proc.kill()
        proc.stdout.close()
    assert list(tmp_path.glob("perf_pairs_*")) == []


def test_layers_must_be_declared_per_layer_metrics(pairs):
    assert pairs.declared_layers(["ecan.route_us"]) == ["ecan.route_us"]
    with pytest.raises(SystemExit):
        pairs.declared_layers(["cpu_us_per_op"])
