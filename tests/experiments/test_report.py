"""EXPERIMENTS.md generation."""

import pathlib

import pytest

from repro.experiments import report


class TestRender:
    def test_covers_every_paper_figure(self):
        ids = " ".join(r.exp_id for r in report.REPORTS)
        for needed in (
            "Figure 2", "Figure 3", "Figure 4", "Figure 5", "Figure 6",
            "Figures 10-13", "Figures 14-15", "Figure 16",
        ):
            assert needed in ids

    def test_every_report_names_a_bench_file(self):
        bench_dir = pathlib.Path(report.REPO_ROOT) / "benchmarks"
        for figure in report.REPORTS:
            for part in figure.bench.split(" / "):
                name = part.strip().split("/")[-1]
                assert (bench_dir / name).exists(), f"missing {name}"

    def test_render_includes_tables_when_present(self):
        """The default source is the archive the prose was written for,
        so a bare ``repro report`` is a no-op on a clean tree."""
        assert report.render() == report.TARGET.read_text()

    def test_render_mentions_missing_outputs(self, tmp_path, monkeypatch):
        monkeypatch.setattr(report, "OUT_DIR", tmp_path)
        text = report.render()
        assert "run the bench to produce" in text

    def test_main_writes_target(self, tmp_path, monkeypatch):
        target = tmp_path / "EXPERIMENTS.md"
        monkeypatch.setattr(report, "TARGET", target)
        report.main()
        assert target.exists()
        assert target.read_text().startswith("# EXPERIMENTS")
