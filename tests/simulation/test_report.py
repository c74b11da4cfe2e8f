"""Tests for the one-command reproduction report."""

import itertools

import pytest

from repro.obs import NullTracer, Tracer
from repro.simulation.experiments import SMOKE_SCALE
from repro.simulation.report import FIGURE_SHAPES, ShapeCheck, generate_report


class TestGenerateReport:
    @pytest.fixture(scope="class")
    def report(self):
        return generate_report(
            scale=SMOKE_SCALE,
            figures=["fig6b", "fig7b"],
            rng=5,
            charts=False,
        )

    def test_contains_figures_and_summary(self, report):
        assert "## fig6b" in report
        assert "## fig7b" in report
        assert "## Summary" in report
        assert "shape checks passed" in report

    def test_challenges_included_by_default(self, report):
        assert "design challenges" in report
        assert "Fig. 2" in report

    def test_checks_render_as_task_list(self, report):
        assert "- [x]" in report or "- [ ]" in report

    def test_charts_flag(self):
        with_charts = generate_report(
            scale=SMOKE_SCALE, figures=["fig6b"], rng=5, charts=True,
            include_challenges=False,
        )
        assert "* RIT" in with_charts  # chart legend marker

    def test_writes_file(self, tmp_path):
        path = tmp_path / "report.md"
        text = generate_report(
            scale=SMOKE_SCALE, figures=["fig7b"], rng=5, charts=False,
            include_challenges=False, path=path,
        )
        assert path.read_text() == text

    def test_regenerated_seconds_are_measured_on_the_clock(self):
        # A no-op sink records nothing, yet the printed time is the one
        # its clock measured (each read advances 2.5 s).
        tracer = NullTracer()
        tracer.clock = itertools.count(0.0, 2.5).__next__
        text = generate_report(
            scale=SMOKE_SCALE, figures=["fig9"], rng=5, charts=False,
            include_challenges=False, tracer=tracer,
        )
        assert "- regenerated in 2.5s" in text

    def test_shared_sweep_runs_in_one_span(self):
        tracer = Tracer("report", clock=itertools.count(0.0, 3.0).__next__)
        text = generate_report(
            scale=SMOKE_SCALE, figures=["fig6b", "fig7b"], rng=5,
            charts=False, include_challenges=False, tracer=tracer,
        )
        spans = [e for e in tracer.events if e["ev"] == "span_start"]
        assert [(s["name"], s.get("attrs")) for s in spans] == [
            ("sweep", {"figures": "fig6b,fig7b"})
        ]
        # The sweep's two clock reads are 3 s apart; each member is
        # charged half.
        assert text.count("- regenerated in 1.5s") == 2

    def test_unknown_figure_rejected(self):
        with pytest.raises(KeyError):
            generate_report(scale=SMOKE_SCALE, figures=["fig99"], rng=5)

    def test_figure_registry_is_complete(self):
        assert set(FIGURE_SHAPES) == {
            "fig6a", "fig6b", "fig7a", "fig7b", "fig8a", "fig8b", "fig9"
        }


class TestShapeCheck:
    def test_fields(self):
        check = ShapeCheck("desc", True)
        assert check.description == "desc"
        assert check.passed
