"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``."""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from lfphillips import diagnose, estimate, oracle  # noqa: E402
from tracer import Span, Tracer, self_times  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 4.0, parent=0),
        Span("a.inner", 2.0, 3.0, parent=1),
        Span("b", 5.0, 9.0, parent=0),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_tracer_records_nesting_and_failures():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    tracer.active = True

    def leaf():
        raise ValueError("boom")

    def outer():
        tracer.call("inner", lambda: None, (), {})
        with pytest.raises(ValueError):
            tracer.call("leaf", leaf, (), {})
        return 7

    assert tracer.call("outer", outer, (), {}) == 7
    names = [(s.name, s.parent, s.failed) for s in tracer.spans]
    assert names == [("outer", None, False), ("inner", 0, False), ("leaf", 0, True)]
    outer_span, inner, failed = tracer.spans
    assert (outer_span.start, inner.start, inner.end, failed.start, failed.end,
            outer_span.end) == (0, 1, 2, 3, 4, 5)
    assert self_times(tracer.spans) == [3.0, 1.0, 1.0]


def test_installed_wraps_imported_names_and_restores_them():
    original_pvalue = diagnose.t_pvalue
    original_fit = estimate.fit
    x, y = oracle.generate(oracle.SynthSpec(0.01, 1.5, noise_sigma=0.001, seed=3))
    tracer = Tracer()
    tracer.active = True
    with layers.installed(tracer):
        assert estimate.t_pvalue is not original_pvalue
        estimate.fit(estimate.LinkSpec("y", (estimate.Predictor("x"),)), {"x": x, "y": y})
    assert estimate.t_pvalue is original_pvalue and diagnose.t_pvalue is original_pvalue
    assert estimate.fit is original_fit
    metrics = layers.layer_metrics(tracer.spans, n_ops=1)
    assert metrics["estimate.fit.calls"] == 1
    assert metrics["diagnose.t_pvalue.calls"] == 2
    assert metrics["estimate.fit_ols.self_ms"] > 0
    assert metrics["estimate.fit_cumulative.self_ms"] == 0


def _same_scan_data(a, b):
    return [(d.n, d.break_year, d.single, d.pair) for d in a] == \
           [(d.n, d.break_year, d.single, d.pair) for d in b]


def _same_scenarios(a, b):
    return all(x.document == y.document and x.csv_text == y.csv_text
               and np.array_equal(x.labor_force, y.labor_force) for x, y in zip(a, b))


def test_identical_seed_gives_identical_inputs():
    assert _same_scan_data(inputs.scan_datasets(11), inputs.scan_datasets(11))
    assert inputs.long_series(11) == inputs.long_series(11)
    assert _same_scenarios(inputs.scenarios(11), inputs.scenarios(11))
    assert inputs.pick(11, 5, range(100)) == inputs.pick(11, 5, range(100))


def test_another_seed_gives_other_inputs():
    assert not _same_scan_data(inputs.scan_datasets(11), inputs.scan_datasets(12))
    assert inputs.long_series(11) != inputs.long_series(12)
    assert not _same_scenarios(inputs.scenarios(11), inputs.scenarios(12))


def test_closed_form_cumulative_matches_grid_search():
    x, y = oracle.generate(oracle.SynthSpec(0.004, 1.3, noise_sigma=0.003, length=25, seed=8))
    a, b = checks.closed_form_cumulative(y.values, [x.values])
    grid = np.linspace(-3.0, 3.0, 60001)
    a_grid, b_grid = oracle.brute_force_constrained(x.values, y.values, grid)
    assert abs(b[0] - b_grid) <= 1e-4
    assert abs(a - a_grid) <= 1e-4 * max(abs(v) for v in x.values)


def test_closed_form_cumulative_matches_the_package_fit():
    x, y = oracle.generate(oracle.SynthSpec(0.004, 1.3, noise_sigma=0.003, length=60, seed=9))
    spec = estimate.LinkSpec("y", (estimate.Predictor("x"),), estimator="cumulative")
    table = estimate.fit(spec, {"x": x, "y": y}).coefficient_table()
    a, b = checks.closed_form_cumulative(y.values, [x.values])
    checks.require_close(table, {"intercept": a, "x": b[0]}, checks.CUMULATIVE_RTOL, "fit")


def test_break_scan_check_rejects_a_wrong_best_year():
    profile = [(1990, 2.0), (1991, 1.0), (1992, 1.0)]
    checks.check_break_scan(profile, 1991, range(1990, 1993), 1992, 1.0)
    with pytest.raises(checks.CheckFailed):
        checks.check_break_scan(profile, 1992, range(1990, 1993), 1992, 1.0)
    with pytest.raises(checks.CheckFailed):
        checks.check_break_scan(profile, 1991, range(1990, 1993), 1990, 2.5)


def test_latency_figures_are_per_op_means():
    # two ops, 10 ms and 200 ms, over six cycles; the second op's last run is slow
    latencies = [0.010, 0.200] * 5 + [0.010, 0.300]
    metrics = run.end_to_end(1.0, latencies, cycle_length=2, rss_from_children=False)
    assert metrics["op_ms.best"] == pytest.approx((10 + 200) / 2)
    assert metrics["op_ms.p90"] == pytest.approx((10 + 250) / 2)  # 200 + 0.5 * 100
