"""Tests for headline-metrics computation."""

import pytest

from repro.analysis.figures import EvaluationRun
from repro.analysis.headline import HeadlineMetric, headline_metrics, render_headline


@pytest.fixture(scope="module")
def metrics(request):
    small_testbed = request.getfixturevalue("small_testbed")
    run = EvaluationRun(testbed=small_testbed, compute_compliance=False)
    return headline_metrics(run, num_random_sequences=10, schedule_horizon=8)


class TestHeadlineMetrics:
    def test_core_metrics_present(self, metrics):
        names = {metric.name for metric in metrics}
        assert "final mean cluster size" in names
        assert "singleton clusters" in names
        assert "configurations deployed" in names

    def test_paper_references_present(self, metrics):
        by_name = {metric.name: metric for metric in metrics}
        assert by_name["final mean cluster size"].paper == "1.40 ASes"
        assert by_name["singleton clusters"].paper == "92%"

    def test_measured_values_parse(self, metrics):
        by_name = {metric.name: metric for metric in metrics}
        mean_value = float(
            by_name["final mean cluster size"].measured.split()[0]
        )
        assert 1.0 <= mean_value < 50.0
        singleton = by_name["singleton clusters"].measured
        assert singleton.endswith("%")

    def test_schedule_comparison_included(self, metrics):
        names = {metric.name for metric in metrics}
        assert any("random vs greedy" in name for name in names)

    def test_distance_comparison_included(self, metrics):
        names = {metric.name for metric in metrics}
        assert "mean cluster size, 1–2 vs 3+ hops" in names


class TestRendering:
    def test_render_alignment(self, metrics):
        text = render_headline(metrics)
        lines = text.splitlines()
        assert lines[0].startswith("result")
        assert "paper" in lines[0] and "reproduction" in lines[0]
        assert len(lines) == len(metrics) + 2

    def test_render_single_metric(self):
        text = render_headline(
            [HeadlineMetric(name="x", paper="1", measured="2")]
        )
        assert "x" in text and "1" in text and "2" in text


def test_evaluation_builds_no_route_objects(small_testbed, monkeypatch):
    """The headline path (schedule, warm starts, Fig. 9 compliance,
    clustering, schedulers) reads route columns only: it must not build
    a single Route object."""
    from repro.bgp.route import Route

    built = []
    construct = Route.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        construct(self, *args, **kwargs)

    monkeypatch.setattr(Route, "__init__", counting_init)
    run = EvaluationRun(testbed=small_testbed, max_configs=60)
    headline_metrics(run, num_random_sequences=5, schedule_horizon=5)
    assert run.engine.stats.warm_starts > 0 and run.compliance
    assert built == []
    # The counter does see Route objects once someone asks for them.
    outcome = run.engine.simulate(run.schedule[0])
    assert len(outcome.routes) == len(built) > 0
