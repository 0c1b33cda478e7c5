"""The experiment catalogue judged on the committed records, and the
EXPERIMENTS.md computed from both."""

import copy
import re
import string

import pytest

from repro.experiments import report
from repro.experiments.registry import BY_NAME, FIGURES, RUN_TIME_ONLY

#: the live half of the churn soak: wall-raced inputs no record keeps
RUN_TIME_GATES = {
    "live: every epoch heals within the round budget",
    "live: zero false kills and zero false purges",
    "live: lookups kept landing through the kill epoch",
    "live: the kill epoch took at least a quarter of the cluster",
}

#: literals a "We measure" template may type: not measurements but a
#: column's definition (80% / 98% of the space) or the paper's own number
QUOTED = {"intro_tacan_imbalance": ("80%", "98%", "~10%")}


class TestCatalogue:
    @pytest.mark.parametrize("scale", report.COMMITTED)
    def test_rows_and_records_are_one_to_one(self, scale):
        stems = {path.stem for path in report.record_dir(scale).glob("*.json")}
        assert stems == set(BY_NAME)
        assert not list(report.record_dir(scale).glob("*.txt"))

    @pytest.mark.parametrize("scale", report.COMMITTED)
    @pytest.mark.parametrize("figure", FIGURES, ids=lambda figure: figure.name)
    def test_committed_record_passes_every_gate_of_its_row(self, figure, scale):
        verdicts = figure.verdicts(report.load_record(figure.name, scale))
        assert list(verdicts) == [label for label, _ in figure.gates]
        run_time_only = {l for l, v in verdicts.items() if v == RUN_TIME_ONLY}
        assert run_time_only == (
            RUN_TIME_GATES if figure.name == "ext_churn_soak" else set()
        )
        assert {v for v in verdicts.values() if v != RUN_TIME_ONLY} == {"PASS"}

    def test_a_doctored_record_fails_by_label_with_the_rows_it_read(self):
        figure = BY_NAME["fig14_stretch_vs_nodes"]
        record = report.load_record(figure.name, "medium")
        for row in record["rows"]:
            if row["policy"] == "softstate" and row["topology"] == "tsk-large":
                row["mean_stretch"] *= 2
        ((label, verdict),) = figure.verdicts(record).items()
        assert label.startswith("soft-state beats random in all but at most one")
        assert verdict.startswith("FAIL (")
        doubled = record["rows"][0]
        assert doubled["N"] == 128 and doubled["policy"] == "softstate"
        assert f"'mean_stretch': {doubled['mean_stretch']!r}" in verdict
        assert "('tsk-large', 'random', 128)=" in verdict

    def test_we_measure_types_no_measured_number(self):
        """A decimal, a percentage or an ``Nx`` factor outside a
        ``{placeholder}`` is a number nobody recomputes."""
        literal = re.compile(r"~?\d+\.\d+|~?\d+(?:\.\d+)?%|~?\d+(?:\.\d+)?x\b")
        for figure in FIGURES:
            typed = "".join(
                text for text, *_ in string.Formatter().parse(figure.we_measure)
            )
            found = [
                match
                for match in literal.findall(typed)
                if match not in QUOTED.get(figure.name, ())
            ]
            assert found == [], figure.name
            if figure.measured is None:  # nothing fills a placeholder
                assert typed == figure.we_measure, figure.name


class TestRender:
    def test_covers_every_paper_figure(self):
        ids = " ".join(figure.exp_id for figure in FIGURES)
        for needed in (
            "Figure 2", "Figure 3", "Figure 4", "Figure 5", "Figure 6",
            "Figures 10-13", "Figures 14-15", "Figure 16",
        ):
            assert needed in ids

    def test_render_includes_tables_when_present(self):
        """EXPERIMENTS.md is computed: ``repro report`` is a no-op on a
        clean tree."""
        assert report.render() == report.TARGET.read_text()

    def test_render_follows_the_medium_record(self, monkeypatch):
        """Tables, the numbers in the prose and the verdicts all come
        from the records: perturb one row and all three move."""
        real = report.load_record

        def perturbed(name, scale):
            record = copy.deepcopy(real(name, scale))
            if (name, scale) == ("ext_chord_generality", "medium"):
                record["rows"][2]["mean_stretch"] *= 3  # soft-state
            return record

        monkeypatch.setattr(report, "load_record", perturbed)
        before, after = report.TARGET.read_text(), report.render()
        changed = [
            (old, new)
            for old, new in zip(before.splitlines(), after.splitlines())
            if old != new
        ]
        assert len(before.splitlines()) == len(after.splitlines())
        (_, said), (_, gate), (_, row) = changed
        assert said.startswith("**We measure.**") and "(~0.5x, a binary" in said
        assert gate.startswith("- PASS / FAIL (") and gate.endswith(
            "): `ext_chord_generality` soft-state fingers beat random ones"
        )
        assert row.split()[0] == "softstate"  # the table row itself

    def test_render_mentions_missing_outputs(self, tmp_path, monkeypatch):
        monkeypatch.setattr(report, "REPO_ROOT", tmp_path)
        text = report.render()
        assert "run the bench at medium scale to produce" in text
        assert "no record / no record" in text

    def test_main_writes_target(self, tmp_path, monkeypatch):
        target = tmp_path / "EXPERIMENTS.md"
        monkeypatch.setattr(report, "TARGET", target)
        report.main()
        assert target.exists()
        assert target.read_text().startswith("# EXPERIMENTS")
