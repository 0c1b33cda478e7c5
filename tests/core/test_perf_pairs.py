"""scripts/perf_pairs.py: the pairs rule itself (no benchmark runs)."""

import importlib.util
import pathlib

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
