import ast
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lfphillips import estimate
from lfphillips.errors import EstimationError, InputError
from lfphillips.estimate import (
    LinkSpec,
    Predictor,
    fit,
    predict,
    scan_break,
    scan_lag,
)
from lfphillips.oracle import (
    SynthSpec,
    brute_force_constrained,
    brute_force_ols,
    generate,
    generate_two_predictors,
)
from lfphillips.series import AnnualSeries, align


def series(values, start=1980, units="fraction-per-year", label=""):
    return AnnualSeries(start, tuple(values), units=units, label=label)


def single_spec(estimator="ols", lag=0, **kw):
    return LinkSpec("y", (Predictor("x", lag),), estimator=estimator, **kw)


class TestOlsFit:
    def test_exact_line(self):
        data = {"x": series([1, 2, 3, 4, 5]), "y": series([2, 4, 6, 8, 10])}
        r = fit(single_spec(), data)
        seg = r.segments[0]
        assert seg.intercept == pytest.approx(0.0, abs=1e-12)
        assert seg.slopes["x"] == pytest.approx(2.0, abs=1e-12)
        assert r.r2_annual == pytest.approx(1.0, abs=1e-12)

    def test_matches_normal_equations_oracle(self):
        x, y = generate(SynthSpec(intercept=0.01, slope=1.5, noise_sigma=0.003,
                                  length=50, seed=11))
        r = fit(single_spec(), {"x": x, "y": y})
        (ys, xs), _ = align([(y, 0), (x, 0)])
        X = np.column_stack([np.ones(len(xs)), xs])
        expected = brute_force_ols(X, ys)
        assert r.segments[0].intercept == pytest.approx(expected[0], abs=1e-10)
        assert r.segments[0].slopes["x"] == pytest.approx(expected[1], abs=1e-10)

    def test_residuals_orthogonal_and_zero_sum(self):
        x, y = generate(SynthSpec(intercept=0.0, slope=2.0, noise_sigma=0.005,
                                  length=40, seed=2))
        r = fit(single_spec(), {"x": x, "y": y})
        resid = np.asarray(r.residuals.values)
        (xs, _), _ = align([(x, 0), (y, 0)])
        assert abs(resid.sum()) < 1e-10
        assert abs(resid @ np.asarray(xs)) < 1e-10

    def test_zero_variance_predictor(self):
        data = {"x": series([1.0] * 10), "y": series(range(10))}
        with pytest.raises(EstimationError):
            fit(single_spec(), data)

    def test_collinear_predictors(self):
        x = series(np.linspace(0, 1, 20))
        data = {"a": x, "b": x.scale(2.0), "y": series(np.linspace(0, 2, 20))}
        spec = LinkSpec("y", (Predictor("a"), Predictor("b")))
        with pytest.raises(EstimationError):
            fit(spec, data)

    def test_sample_too_small(self):
        data = {"x": series([1, 2, 3]), "y": series([1, 2, 4])}
        with pytest.raises(InputError):
            fit(single_spec(), data)

    def test_pvalues_small_on_strong_fit(self):
        x, y = generate(SynthSpec(intercept=0.04, slope=-1.0, noise_sigma=0.002,
                                  length=31, seed=4))
        r = fit(single_spec(), {"x": x, "y": y})
        assert r.pvalues["x"] < 1e-6
        assert 0.0 <= r.pvalues["intercept"] <= 1.0


class TestCumulativeFit:
    def test_noise_free_recovery(self):
        x, y = generate(SynthSpec(intercept=-0.0084, slope=1.90, length=40, seed=7))
        r = fit(single_spec("cumulative"), {"x": x, "y": y})
        assert r.segments[0].intercept == pytest.approx(-0.0084, abs=1e-10)
        assert r.segments[0].slopes["x"] == pytest.approx(1.90, abs=1e-10)

    def test_endpoint_constraint_exact(self):
        x, y = generate(SynthSpec(intercept=0.002, slope=1.3, noise_sigma=0.004,
                                  length=35, seed=9))
        r = fit(single_spec("cumulative"), {"x": x, "y": y})
        # residuals sum to zero <=> predicted cumulative endpoint matches observed
        assert abs(sum(r.residuals.values)) < 1e-12

    def test_matches_grid_oracle(self):
        x, y = generate(SynthSpec(intercept=0.001, slope=1.31, noise_sigma=0.002,
                                  length=40, seed=21))
        r = fit(single_spec("cumulative"), {"x": x, "y": y})
        (ys, xs), _ = align([(y, 0), (x, 0)])
        step = 0.002
        grid = np.arange(1.31 - 0.3, 1.31 + 0.3, step)
        alpha, beta = brute_force_constrained(xs, ys, grid)
        assert r.segments[0].slopes["x"] == pytest.approx(beta, abs=step)
        assert r.segments[0].intercept == pytest.approx(alpha, abs=step)

    def test_two_predictor_recovery(self):
        xa, xb, y = generate_two_predictors(0.01, 2.0, -0.5, length=40, seed=5)
        spec = LinkSpec("y", (Predictor("xa"), Predictor("xb")), estimator="cumulative")
        r = fit(spec, {"xa": xa, "xb": xb, "y": y})
        seg = r.segments[0]
        assert seg.intercept == pytest.approx(0.01, abs=1e-8)
        assert seg.slopes["xa"] == pytest.approx(2.0, abs=1e-8)
        assert seg.slopes["xb"] == pytest.approx(-0.5, abs=1e-8)

    def test_cumulative_r2_reported(self):
        x, y = generate(SynthSpec(intercept=0.0, slope=1.5, noise_sigma=0.003,
                                  length=40, seed=13))
        r = fit(single_spec("cumulative"), {"x": x, "y": y})
        assert r.r2_cumulative <= 1.0
        assert r.r2_annual <= 1.0


class TestPiecewise:
    def test_generate_and_refit(self):
        spec_synth = SynthSpec(intercept=0.04, slope=-1.5, break_year=1995,
                               post_intercept=0.04, post_slope=-0.2, length=40, seed=3)
        x, y = generate(spec_synth)
        spec = LinkSpec("y", (Predictor("x"),), break_year=1995)
        r = fit(spec, {"x": x, "y": y})
        pre, post = r.segments
        assert pre.intercept == pytest.approx(0.04, abs=1e-8)
        assert pre.slopes["x"] == pytest.approx(-1.5, abs=1e-8)
        assert post.intercept == pytest.approx(0.04, abs=1e-8)
        assert post.slopes["x"] == pytest.approx(-0.2, abs=1e-8)

    def test_identical_segments_recovered(self):
        x, y = generate(SynthSpec(intercept=0.01, slope=1.2, break_year=2000,
                                  post_intercept=0.01, post_slope=1.2, length=40, seed=8))
        spec = LinkSpec("y", (Predictor("x"),), break_year=2000)
        r = fit(spec, {"x": x, "y": y})
        pre, post = r.segments
        assert pre.intercept == pytest.approx(post.intercept, abs=1e-8)
        assert pre.slopes["x"] == pytest.approx(post.slopes["x"], abs=1e-8)

    def test_shared_intercept_cumulative(self):
        spec_synth = SynthSpec(intercept=0.0432, slope=-0.179, break_year=1997,
                               post_intercept=0.0432, post_slope=-1.556,
                               length=40, seed=17)
        x, y = generate(spec_synth)
        spec = LinkSpec("y", (Predictor("x"),), estimator="cumulative",
                        break_year=1997, shared=("intercept",))
        r = fit(spec, {"x": x, "y": y})
        pre, post = r.segments
        assert pre.intercept == post.intercept == pytest.approx(0.0432, abs=1e-8)
        assert pre.slopes["x"] == pytest.approx(-0.179, abs=1e-8)
        assert post.slopes["x"] == pytest.approx(-1.556, abs=1e-8)

    def test_all_shared_equals_unbroken(self):
        x, y = generate(SynthSpec(intercept=0.01, slope=1.2, noise_sigma=0.004,
                                  length=40, seed=6))
        data = {"x": x, "y": y}
        broken = fit(
            LinkSpec("y", (Predictor("x"),), break_year=1981, shared=("intercept", "x")),
            data,
        )
        flat = fit(single_spec(), data)
        assert broken.segments[0].intercept == pytest.approx(flat.segments[0].intercept,
                                                             abs=1e-12)
        assert broken.segments[0].slopes["x"] == pytest.approx(flat.segments[0].slopes["x"],
                                                               abs=1e-12)

    def test_segment_too_short(self):
        x, y = generate(SynthSpec(intercept=0.0, slope=1.0, length=40, seed=1))
        spec = LinkSpec("y", (Predictor("x"),), break_year=1982)
        with pytest.raises(InputError):
            fit(spec, {"x": x, "y": y})

    def test_break_outside_window(self):
        x, y = generate(SynthSpec(intercept=0.0, slope=1.0, length=40, seed=1))
        spec = LinkSpec("y", (Predictor("x"),), break_year=2100)
        with pytest.raises(InputError):
            fit(spec, {"x": x, "y": y})

    def test_cumulative_predicted_curve_continuous(self):
        spec_synth = SynthSpec(intercept=0.02, slope=-1.0, break_year=1995,
                               post_intercept=0.01, post_slope=0.5,
                               noise_sigma=0.003, length=40, seed=15)
        x, y = generate(spec_synth)
        spec = LinkSpec("y", (Predictor("x"),), estimator="cumulative", break_year=1995)
        r = fit(spec, {"x": x, "y": y})
        assert abs(sum(r.residuals.values)) < 1e-12


class TestScanLag:
    def test_identity_best_zero(self):
        x, _ = generate(SynthSpec(intercept=0, slope=1, length=40, seed=5))
        data = {"x": x, "y": x.relabel("y")}
        results, best = scan_lag(single_spec(), data, range(-5, 6))
        assert best == 0
        assert dict(results)[0].r2_annual == pytest.approx(1.0)

    def test_recovers_known_lag(self):
        x, y = generate(SynthSpec(intercept=0.0, slope=2.0, lag=2, noise_sigma=0.002,
                                  length=40, seed=19))
        results, best = scan_lag(single_spec(), {"x": x, "y": y}, range(-5, 6))
        assert best == 2

    def test_deterministic_under_order(self):
        x, y = generate(SynthSpec(intercept=0.0, slope=1.4, noise_sigma=0.005,
                                  length=40, seed=23))
        data = {"x": x, "y": y}
        _, best_fwd = scan_lag(single_spec(), data, range(-5, 6))
        _, best_rev = scan_lag(single_spec(), data, list(range(5, -6, -1)))
        assert best_fwd == best_rev

    def test_empty_lag_set(self):
        x, y = generate(SynthSpec(intercept=0.0, slope=1.0, length=40, seed=1))
        with pytest.raises(InputError):
            scan_lag(single_spec(), {"x": x, "y": y}, [500])

    def test_nan_criterion_never_wins(self):
        x, _ = generate(SynthSpec(intercept=0.0, slope=1.0, length=40, seed=3))
        # y varies only in its first year, so every lag >= 1 leaves a constant
        # response on the window and a NaN R^2
        y = series([0.5] + [0.0] * 39, start=x.start_year)
        forward, best_fwd = scan_lag(single_spec(), {"x": x, "y": y}, range(-5, 6))
        _, best_rev = scan_lag(single_spec(), {"x": x, "y": y}, range(5, -6, -1))
        assert np.isnan(dict(forward)[3].r2_annual)
        assert best_fwd == best_rev
        assert best_fwd <= 0
        # all candidates NaN: the tie rule picks the smallest |lag|
        flat = {"x": x, "y": series([0.0] * 40, start=x.start_year)}
        assert scan_lag(single_spec(), flat, range(-5, 6))[1] == 0
        assert scan_lag(single_spec(), flat, range(5, -6, -1))[1] == 0

    def test_inexact_constant_response_has_no_r2(self):
        # 0.01 is not a binary fraction, so the mean leaves round-off residue;
        # constancy is tested exactly, and every lag reports NaN
        x, _ = generate(SynthSpec(intercept=0.0, slope=1.0, length=40, seed=3))
        y = series([0.01] * 40, start=x.start_year)
        results, best = scan_lag(single_spec(), {"x": x, "y": y}, range(-5, 6))
        assert len(results) == 11
        assert all(np.isnan(r.r2_annual) for _, r in results)
        assert best == 0


class TestScanBreak:
    def test_finds_injected_break(self):
        x, y = generate(SynthSpec(intercept=0.02, slope=-1.5, break_year=1998,
                                  post_intercept=0.02, post_slope=-0.1,
                                  noise_sigma=0.001, length=40, seed=29))
        spec = LinkSpec("y", (Predictor("x"),), shared=("intercept",))
        _, best = scan_break(spec, {"x": x, "y": y}, range(1990, 2010))
        assert best == 1998

    def test_flat_profile_ties_to_earliest(self):
        # exact single line: every candidate gives zero SSE, earliest wins
        x = series(np.linspace(-0.01, 0.01, 40))
        y = series(0.01 + 2.0 * np.asarray(x.values))
        spec = LinkSpec("y", (Predictor("x"),), shared=("intercept", "x"))
        profile, best = scan_break(spec, {"x": x, "y": y}, range(1990, 2000))
        assert best == 1990
        assert all(sse == pytest.approx(0.0, abs=1e-20) for _, sse in profile)

    def test_no_legal_candidates(self):
        x, y = generate(SynthSpec(intercept=0.0, slope=1.0, length=40, seed=1))
        spec = LinkSpec("y", (Predictor("x"),))
        with pytest.raises(InputError):
            scan_break(spec, {"x": x, "y": y}, [1850])

    def test_break_year_in_the_spec_is_refused(self):
        # the scan supplies its own break years and would ignore this one
        x, y = generate(SynthSpec(intercept=0.0, slope=1.0, length=40, seed=1))
        spec = LinkSpec("y", (Predictor("x"),), break_year=1990)
        with pytest.raises(InputError, match='^"break_year" 1990'):
            scan_break(spec, {"x": x, "y": y}, range(1985, 2000))

    @pytest.mark.parametrize("estimator", ["ols", "cumulative"])
    @pytest.mark.parametrize("shared", [(), ("intercept",), ("x",)])
    def test_profile_matches_one_fit_per_candidate(self, estimator, shared):
        x, y = generate(SynthSpec(intercept=0.01, slope=-0.8, break_year=1996,
                                  post_intercept=0.02, post_slope=0.4,
                                  noise_sigma=0.002, length=40, seed=47))
        data = {"x": x, "y": y}
        spec = LinkSpec("y", (Predictor("x"),), estimator=estimator, shared=shared)
        profile, best = scan_break(spec, data, range(1985, 2015))
        assert [year for year, _ in profile] == list(range(1985, 2015))
        for year, sse in profile:
            direct = fit(replace(spec, break_year=year), data).objective_sse
            assert sse == pytest.approx(direct, rel=1e-12, abs=0)
        assert best == min(profile, key=lambda item: (item[1], item[0]))[0]

    def test_profile_does_not_depend_on_the_pass_size(self, monkeypatch):
        x, y = generate(SynthSpec(intercept=0.01, slope=-0.8, break_year=2040,
                                  post_intercept=0.02, post_slope=0.4,
                                  noise_sigma=0.002, length=160, seed=53))
        spec = LinkSpec("y", (Predictor("x"),), estimator="cumulative")
        stacked = scan_break(spec, {"x": x, "y": y}, range(1980, 2140))
        # a budget of one entry solves each candidate in a pass of its own
        monkeypatch.setattr(estimate, "_STACK_ENTRIES", 1)
        assert scan_break(spec, {"x": x, "y": y}, range(1980, 2140)) == stacked
        assert stacked[1] == 2040

    def test_edge_and_outside_years_are_dropped(self):
        x, y = generate(SynthSpec(intercept=0.0, slope=1.0, noise_sigma=0.002,
                                  length=40, seed=1))
        first, last = x.start_year, x.end_year
        spec = LinkSpec("y", (Predictor("x"),), shared=("intercept",))
        candidates = [first - 3, first, first + 4, first + 5, last - 4, last - 3, last + 1]
        profile, _ = scan_break(spec, {"x": x, "y": y}, candidates)
        # each segment needs 5 observations; first is not inside the window
        assert [year for year, _ in profile] == [first + 5, last - 4]

    def test_collinear_candidate_is_dropped(self):
        # x is constant before 1990, so any break up to 1990 makes x[pre] a
        # multiple of intercept[pre]; later breaks keep a full-rank design
        x = series([0.02] * 10 + list(np.linspace(-0.01, 0.03, 30)))
        noise = np.random.default_rng(5).normal(0.0, 0.001, 40)
        y = series(0.01 - 0.5 * np.asarray(x.values) + noise)
        spec = LinkSpec("y", (Predictor("x"),))
        years = [1986, 1988, 1990, 1991, 1995]
        with pytest.raises(EstimationError):
            fit(replace(spec, break_year=1990), {"x": x, "y": y})
        profile, _ = scan_break(spec, {"x": x, "y": y}, years)
        assert [year for year, _ in profile] == [1991, 1995]

    def test_zero_variance_predictor_is_an_input_error(self):
        x = series([0.02] * 40)
        y = series(np.linspace(0.0, 0.01, 40))
        spec = LinkSpec("y", (Predictor("x"),), shared=("intercept",))
        with pytest.raises(InputError, match="zero variance"):
            scan_break(spec, {"x": x, "y": y}, range(1990, 2000))

    def test_reversed_candidates_keep_best_and_order(self):
        x, y = generate(SynthSpec(intercept=0.02, slope=-1.5, break_year=1998,
                                  post_intercept=0.02, post_slope=-0.1,
                                  noise_sigma=0.001, length=40, seed=29))
        spec = LinkSpec("y", (Predictor("x"),), estimator="cumulative",
                        shared=("intercept",))
        forward, best_fwd = scan_break(spec, {"x": x, "y": y}, range(1990, 2010))
        backward, best_rev = scan_break(spec, {"x": x, "y": y}, range(2009, 1989, -1))
        assert best_rev == best_fwd
        assert [year for year, _ in backward] == list(range(2009, 1989, -1))
        assert dict(backward) == pytest.approx(dict(forward), rel=1e-12)

    def test_duplicate_years_are_solved_once_and_keep_their_order(self, monkeypatch):
        x, y = generate(SynthSpec(intercept=0.02, slope=-1.5, break_year=1998,
                                  post_intercept=0.02, post_slope=-0.1,
                                  noise_sigma=0.001, length=40, seed=29))
        data = {"x": x, "y": y}
        spec = LinkSpec("y", (Predictor("x"),), estimator="cumulative")
        slices = []
        real = estimate._reduce

        def spy(estimator, Xy, n=None):
            slices.append(len(Xy))
            return real(estimator, Xy, n)

        monkeypatch.setattr(estimate, "_reduce", spy)
        forward, _ = scan_break(spec, data, range(1990, 2000))
        years = [1995, 1990, 1995, 1850, 1990]
        repeated, best = scan_break(spec, data, years)
        assert repeated == [(year, dict(forward)[year]) for year in (1995, 1990, 1995, 1990)]
        assert best == min((1990, 1995), key=lambda year: (dict(forward)[year], year))
        assert slices == [10, 2]

    @pytest.mark.parametrize("year", [1990.5, "1990", [1990], None])
    def test_non_integral_year_is_refused(self, year):
        x, y = generate(SynthSpec(intercept=0.0, slope=1.0, length=40, seed=1))
        with pytest.raises(InputError, match="^break_year must be an integer"):
            scan_break(LinkSpec("y", (Predictor("x"),)), {"x": x, "y": y}, [1995, year])

    def test_integral_float_year_is_reported_as_an_int(self):
        x, y = generate(SynthSpec(intercept=0.0, slope=1.0, noise_sigma=0.002,
                                  length=40, seed=1))
        spec = LinkSpec("y", (Predictor("x"),))
        profile, best = scan_break(spec, {"x": x, "y": y}, [1990.0, 1995])
        assert [(year, type(year)) for year, _ in profile] == [(1990, int), (1995, int)]
        assert profile == scan_break(spec, {"x": x, "y": y}, [1990, 1995])[0]
        assert type(best) is int

    def test_dropped_breaks_are_those_fit_refuses(self):
        # the window is 1980..2019; the candidates run past both of its ends
        # and through both segment-floor edges (1985 and 2015 are the last
        # legal years). x is constant until 1989, so an unshared x[pre] is a
        # multiple of intercept[pre] for every break up to 1990. The
        # cumulative estimator's rank test does not see that collinearity
        # through the cumulated design (its fits there succeed, with
        # coefficients near 1e11), so it keeps those years as fit does
        x = series([0.02] * 10 + list(np.linspace(-0.01, 0.03, 30)))
        noise = np.random.default_rng(5).normal(0.0, 0.001, 40)
        y = series(0.01 - 0.5 * np.asarray(x.values) + noise)
        data = {"x": x, "y": y}
        candidates = range(1977, 2023)
        for spec, first_kept in (
            (LinkSpec("y", (Predictor("x"),)), 1991),
            (LinkSpec("y", (Predictor("x"),), estimator="cumulative"), 1985),
            (LinkSpec("y", (Predictor("x"),), shared=("intercept",)), 1985),
        ):
            profile, _ = scan_break(spec, data, candidates)
            sse = dict(profile)
            for year in candidates:
                try:
                    direct = fit(replace(spec, break_year=year), data)
                except (InputError, EstimationError):
                    assert year not in sse, f"{year} kept although fit raises"
                    continue
                assert sse[year] == direct.objective_sse, year
            assert list(sse) == list(range(first_kept, 2016))

    def test_one_solve_per_break_scan(self, japan, monkeypatch):
        # every candidate is one slice of the one frame, cpi's 42 years
        shapes = []
        real = estimate._reduce

        def spy(estimator, Xy, n=None):
            shapes.append(Xy.shape)
            return real(estimator, Xy, n)

        monkeypatch.setattr(estimate, "_reduce", spy)
        profile, _ = scan_break(LinkSpec("cpi", (Predictor("unemployment"),)), japan,
                                range(1975, 1995))
        assert len(profile) == 19
        assert shapes == [(19, 42, 5)]

    @pytest.mark.parametrize("estimator", ["ols", "cumulative"])
    @pytest.mark.parametrize("shared", [(), ("intercept",)])
    def test_builds_no_coefficients_or_curves(self, japan, monkeypatch, estimator, shared):
        # a break scan ranks by SSE alone, which the factor holds: no R^-1,
        # no coefficients and no predicted curves for any candidate
        calls = []

        def counting(name, real):
            def spy(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return spy

        monkeypatch.setattr(np.linalg, "inv", counting("inv", np.linalg.inv))
        monkeypatch.setattr(estimate, "_stack_curves",
                            counting("_stack_curves", estimate._stack_curves))
        spec = LinkSpec("cpi", (Predictor("unemployment"),), estimator=estimator,
                        shared=shared)
        profile, best = scan_break(spec, japan, range(1975, 1995))
        assert len(profile) == 19
        assert calls == []
        # the spies do see a fit of the best year build both
        fit(replace(spec, break_year=best), japan)
        assert calls == ["_stack_curves", "inv"]


class TestObjectiveSseIsTheKernelsRss:
    """A fit's objective SSE is the rss its kernel reads off R, to the bit,
    not a sum over its curves, so a break scan that stops at the factor
    reports the number ``fit`` does."""

    @staticmethod
    def fit_and_rss(monkeypatch, spec, data):
        seen = []
        real = estimate.least_squares_stack

        def spy(Xy, n=None):
            solution = real(Xy, n)
            seen.append(solution[1])
            return solution

        monkeypatch.setattr(estimate, "least_squares_stack", spy)
        result = fit(spec, data)
        ((rss,),) = seen
        return result, float(rss)

    @pytest.mark.parametrize("estimator", ["ols", "cumulative"])
    @pytest.mark.parametrize("lag", [0, -3])
    @pytest.mark.parametrize("extra", [{}, {"break_year": 1995},
                                       {"break_year": 1995, "shared": ("intercept",)}])
    def test_synthetic(self, monkeypatch, estimator, lag, extra):
        spec = single_spec(estimator, lag, **extra)
        result, rss = self.fit_and_rss(monkeypatch, spec, ragged_data())
        assert result.objective_sse == rss

    @pytest.mark.parametrize("spec", [
        LinkSpec("cpi", (Predictor("unemployment"),)),
        LinkSpec("cpi", (Predictor("unemployment"),), estimator="cumulative"),
        # these two differed from rss in their last digits when the SSE was
        # summed over the curves
        LinkSpec("dgdp", (Predictor("labor_force_growth"),), break_year=1982),
        LinkSpec("unemployment", (Predictor("labor_force_growth"),), estimator="cumulative",
                 break_year=1977, shared=("intercept",)),
    ])
    def test_japan(self, japan, monkeypatch, spec):
        result, rss = self.fit_and_rss(monkeypatch, spec, japan)
        assert result.objective_sse == rss


class TestPredict:
    def test_intercept_only_when_predictors_zero(self):
        x, y = generate(SynthSpec(intercept=0.05, slope=2.0, noise_sigma=0.002,
                                  length=40, seed=31))
        r = fit(single_spec(), {"x": x, "y": y})
        zeros = series([0.0] * 5, start=2030)
        p = predict(r, {"x": zeros}, range(2030, 2035))
        for v in p.values:
            assert v == pytest.approx(r.segments[0].intercept, abs=1e-15)

    @pytest.mark.parametrize("spec", [
        single_spec(),
        LinkSpec("y", (Predictor("x"), Predictor("z", 1)), break_year=2000, shared=("z",)),
        LinkSpec("y", (Predictor("x"), Predictor("z", 1)), estimator="cumulative",
                 break_year=2000, shared=("z",)),
    ])
    def test_refit_reproduces_fitted_values(self, spec):
        x, y = generate(SynthSpec(intercept=0.01, slope=1.1, noise_sigma=0.003,
                                  length=40, seed=37))
        data = {"x": x, "y": y, "z": ragged_data()["z"]}
        r = fit(spec, data)
        first, last = r.window
        p = predict(r, data, range(first, last + 1))
        resid = [y.value(t) - p.value(t) for t in range(first, last + 1)]
        assert resid == pytest.approx(list(r.residuals.values), abs=1e-12)

    def test_piecewise_hand_value(self):
        # post-break segment of the published unemployment model
        x, y = generate(SynthSpec(intercept=0.0432, slope=-0.179, break_year=1997,
                                  post_intercept=0.0432, post_slope=-1.556,
                                  length=40, seed=41))
        spec = LinkSpec("y", (Predictor("x"),), break_year=1997, shared=("intercept",))
        r = fit(spec, {"x": x, "y": y})
        p = predict(r, {"x": series([-0.004], start=2005)}, [2005])
        assert p.values[0] == pytest.approx(-1.556 * (-0.004) + 0.0432, abs=1e-8)

    def test_missing_years_rejected(self):
        x, y = generate(SynthSpec(intercept=0.0, slope=1.0, length=40, seed=1))
        r = fit(single_spec(), {"x": x, "y": y})
        with pytest.raises(InputError):
            predict(r, {"x": x}, range(2100, 2105))


class TestScaleEquivariance:
    @pytest.mark.parametrize("estimator", ["ols", "cumulative"])
    def test_coefficients_and_sigma_scale(self, estimator):
        x, y = generate(SynthSpec(intercept=0.01, slope=1.5, noise_sigma=0.004,
                                  length=40, seed=43))
        data = {"x": x, "y": y}
        scaled = {"x": x, "y": y.scale(3.0)}
        r1 = fit(single_spec(estimator), data)
        r2 = fit(single_spec(estimator), scaled)
        assert r2.segments[0].intercept == pytest.approx(3 * r1.segments[0].intercept,
                                                         rel=1e-9)
        assert r2.segments[0].slopes["x"] == pytest.approx(3 * r1.segments[0].slopes["x"],
                                                           rel=1e-9)
        assert r2.sigma == pytest.approx(3 * r1.sigma, rel=1e-9)
        assert r2.r2_annual == pytest.approx(r1.r2_annual, abs=1e-9)


def reference_sample(spec, data):
    """The aligned sample by per-year lookups: y(t) against x(t - lag)."""
    y = data[spec.response]
    preds = [(data[p.name], p.lag) for p in spec.predictors]
    first = max([y.start_year] + [s.start_year + lag for s, lag in preds])
    last = min([y.end_year] + [s.end_year + lag for s, lag in preds])
    if spec.window is not None:
        first, last = max(first, spec.window[0]), min(last, spec.window[1])
    years = range(first, last + 1)
    cols = {p.name: [s.value(t - lag) for t in years]
            for p, (s, lag) in zip(spec.predictors, preds)}
    return [y.value(t) for t in years], cols, list(years)


def assert_same_sample(spec, data):
    yv, cols, years = estimate._aligned_sample(spec, data)
    want_y, want_cols, want_years = reference_sample(spec, data)
    assert years.tolist() == want_years
    assert yv.tolist() == want_y
    assert {name: col.tolist() for name, col in cols.items()} == want_cols


class TestAlignedSample:
    LAGS = range(-5, 6)

    @pytest.mark.parametrize("response", ["cpi", "dgdp", "unemployment"])
    @pytest.mark.parametrize("predictor", ["unemployment", "labor_force_growth"])
    @pytest.mark.parametrize("window", [None, (1975, 2000), (1982, 2012)])
    def test_japan_links_match_per_year_lookups(self, japan, response, predictor, window):
        for lag in self.LAGS:
            spec = LinkSpec(response, (Predictor(predictor, lag),), window=window)
            assert_same_sample(spec, japan)

    @pytest.mark.parametrize("window", [None, (1990, 2010)])
    def test_synthetic_spans_that_differ(self, window):
        for lag in self.LAGS:
            # the predictor starts `lag` years before the response; the second
            # predictor is cut short at both ends
            x, y = generate(SynthSpec(intercept=0.01, slope=1.3, lag=lag, noise_sigma=0.002,
                                      length=40, seed=50 + lag))
            z, _ = generate(SynthSpec(intercept=0.0, slope=1.0, length=30, seed=7,
                                      start_year=1985))
            data = {"x": x, "y": y, "z": z.window(1987, 2011)}
            for zlag in (-2, 0, 3):
                spec = LinkSpec("y", (Predictor("x", lag), Predictor("z", zlag)),
                                window=window)
                assert_same_sample(spec, data)

    def test_integral_float_window(self, japan):
        # a JSON spec may spell the window years as floats
        spec = LinkSpec("cpi", (Predictor("unemployment", 2),), window=(1975, 2000))
        floats = replace(spec, window=(1975.0, 2000.0))
        yv, cols, years = estimate._aligned_sample(floats, japan)
        want_y, want_cols, want_years = estimate._aligned_sample(spec, japan)
        assert years.tolist() == want_years.tolist()
        assert yv.tolist() == want_y.tolist()
        assert cols["unemployment"].tolist() == want_cols["unemployment"].tolist()

    def test_missing_response(self):
        data = {"x": series([1.0, 2.0, 3.0])}
        with pytest.raises(InputError, match="^response series 'y' missing from data$"):
            estimate._aligned_sample(LinkSpec("y", (Predictor("w"),)), data)

    def test_missing_predictor(self):
        data = {"x": series([1.0, 2.0, 3.0]), "y": series([1.0, 2.0, 3.0], start=2000)}
        spec = LinkSpec("y", (Predictor("x"), Predictor("w")))
        with pytest.raises(InputError, match="^predictor series 'w' missing from data$"):
            estimate._aligned_sample(spec, data)

    @pytest.mark.parametrize("lag, window", [(5, None), (0, (1990, 1995)), (-1, (1982, 1982))])
    def test_empty_sample(self, lag, window):
        data = {"x": series([1.0, 2.0, 3.0]), "y": series([1.0, 2.0, 3.0])}
        spec = LinkSpec("y", (Predictor("x", lag),), window=window)
        with pytest.raises(InputError, match="^empty aligned sample; check lags and window$"):
            estimate._aligned_sample(spec, data)

    @pytest.mark.parametrize("estimator, break_year", [("ols", None), ("cumulative", 2000)])
    def test_residuals_are_python_floats(self, estimator, break_year):
        x, y = generate(SynthSpec(intercept=0.01, slope=1.5, noise_sigma=0.003,
                                  length=40, seed=59))
        r = fit(single_spec(estimator, break_year=break_year), {"x": x, "y": y})
        assert len(r.residuals) == 40
        assert all(type(v) is float for v in r.residuals.values)


class TestSpecValidation:
    @pytest.mark.parametrize("lag", [1.5, True, "1", None, float("nan")])
    def test_non_integral_lag(self, lag):
        with pytest.raises(InputError, match="^lag must be an integer"):
            Predictor("x", lag)

    def test_non_string_names(self):
        with pytest.raises(InputError, match="^predictor name must be a string"):
            Predictor(1)
        with pytest.raises(InputError, match="^response must be a string"):
            LinkSpec({}, (Predictor("x"),))
        with pytest.raises(InputError, match="^shared coefficient must be a string"):
            LinkSpec("y", (Predictor("x"),), break_year=1990, shared=({},))

    @pytest.mark.parametrize("year", ["1990", 1990.5, False])
    def test_non_integral_break_year(self, year):
        with pytest.raises(InputError, match="^break_year must be an integer"):
            single_spec(break_year=year)

    @pytest.mark.parametrize("window", [(1982,), (1982, 1990, 2000), 1982])
    def test_window_of_other_than_two_years(self, window):
        with pytest.raises(InputError, match="^window must be two years"):
            single_spec(window=window)

    @pytest.mark.parametrize("window", [("1982", "2012"), (1982, 2012.5), (True, 2012)])
    def test_non_integral_window_year(self, window):
        with pytest.raises(InputError, match="^window year must be an integer"):
            single_spec(window=window)

    def test_integral_values_become_ints(self):
        spec = LinkSpec("y", (Predictor("x", 2.0),), break_year=np.int64(1990),
                        window=[1982.0, np.float64(2012.0)])
        assert spec.predictors[0].lag == 2 and type(spec.predictors[0].lag) is int
        assert spec.break_year == 1990 and type(spec.break_year) is int
        assert spec.window == (1982, 2012)
        assert all(type(y) is int for y in spec.window)


SCORE_FIELDS = ("sse_annual", "sse_cumulative", "r2_annual", "r2_cumulative")


def assert_scores_equal_fits(spec, data, lags, predictor=None):
    """Every kept lag's scores equal ``fit`` at that lag, bit for bit (NaN
    matching NaN), and the dropped lags are exactly those where ``fit`` raises."""
    name = predictor or spec.predictors[0].name
    results, _ = scan_lag(spec, data, lags, predictor=name)
    scores = dict(results)
    kept = 0
    for lag in lags:
        try:
            direct = fit(replace(spec, predictors=tuple(
                replace(p, lag=lag) if p.name == name else p for p in spec.predictors)), data)
        except (InputError, EstimationError):
            assert lag not in scores, f"lag {lag} kept although fit raises"
            continue
        kept += 1
        got = scores[lag]
        for attr in SCORE_FIELDS:
            want = getattr(direct, attr)
            value = getattr(got, attr)
            assert value == want or (np.isnan(want) and np.isnan(value)), \
                f"lag {lag}: {attr} {value!r} != fit's {want!r}"
        assert got.objective_sse == direct.objective_sse
    return kept


def ragged_data():
    """y, x and z over different spans, so that unwindowed lags differ in length."""
    x, y = generate(SynthSpec(intercept=0.01, slope=-0.9, lag=2, noise_sigma=0.003,
                              length=45, seed=61, start_year=1970))
    z, _ = generate(SynthSpec(intercept=0.0, slope=1.0, length=50, seed=62, start_year=1962))
    return {"x": x, "y": y, "z": z}


@st.composite
def ragged_scans(draw):
    """A spec of y on x, y and x over drawn, overlapping spans, and a lag
    range: a window or none, either estimator, a break (its intercept shared
    or not) or none."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    y_start = draw(st.integers(1975, 1985))
    starts = {"y": y_start, "x": y_start + draw(st.integers(-8, 8))}
    data = {name: series(rng.normal(0.0, 0.01, draw(st.integers(15, 40))), start=start)
            for name, start in starts.items()}
    window = None
    if draw(st.booleans()):
        first = y_start + draw(st.integers(-3, 10))
        window = (first, first + draw(st.integers(6, 30)))
    first_lag = draw(st.integers(-12, 4))
    lags = range(first_lag, first_lag + draw(st.integers(1, 14)))
    break_year = draw(st.none() | st.integers(y_start + 5, y_start + 20))
    shared = ("intercept",) if break_year is not None and draw(st.booleans()) else ()
    spec = LinkSpec("y", (Predictor("x"),), estimator=draw(st.sampled_from(["ols", "cumulative"])),
                    break_year=break_year, shared=shared, window=window)
    return spec, data, lags


class TestLagScores:
    @pytest.mark.parametrize("estimator", ["ols", "cumulative"])
    @pytest.mark.parametrize("window", [None, (1985, 2005)])
    @pytest.mark.parametrize("predictors, scanned, extra", [
        ((Predictor("x"),), "x", {}),
        ((Predictor("x"), Predictor("z", 1)), "z", {}),
        ((Predictor("x"),), "x", {"break_year": 1995, "shared": ("intercept",)}),
    ])
    def test_scores_equal_fit_at_every_lag(self, estimator, window, predictors, scanned,
                                           extra):
        spec = LinkSpec("y", predictors, estimator=estimator, window=window, **extra)
        kept = assert_scores_equal_fits(spec, ragged_data(), range(-8, 9), scanned)
        assert kept >= 10

    @pytest.mark.parametrize("estimator", ["ols", "cumulative"])
    @pytest.mark.parametrize("window", [None, (1982, 2012)])
    def test_japan_scores_equal_fit(self, japan, estimator, window):
        spec = LinkSpec("cpi", (Predictor("labor_force_growth"),), estimator=estimator,
                        window=window)
        assert assert_scores_equal_fits(spec, japan, range(-5, 6)) == 11

    @pytest.mark.parametrize("estimator", ["ols", "cumulative"])
    def test_long_series_spans_several_passes(self, estimator):
        x, y = generate(SynthSpec(intercept=0.01, slope=1.2, lag=3, noise_sigma=0.004,
                                  length=4000, seed=67, start_year=1000))
        spec = LinkSpec("y", (Predictor("x"),), estimator=estimator, window=(1100, 4900))
        lags = range(-15, 16)
        # every lag's sample fills the one frame, which is split into passes
        assert 3801 * 2 * len(lags) > 2 * estimate._STACK_ENTRIES
        assert assert_scores_equal_fits(spec, {"x": x, "y": y}, lags) == len(lags)
        assert scan_lag(spec, {"x": x, "y": y}, lags)[1] == 3

    def test_dropped_lags_are_those_fit_refuses(self):
        # x is constant before 1990 (zero-variance windows at some lags); z is
        # x two years earlier, so lag 2 of x against z is collinear; lags past
        # the data leave too few observations; the break floor rejects others
        walk, _ = generate(SynthSpec(intercept=0.0, slope=1.0, length=30, seed=71,
                                     start_year=1990))
        x = series([0.02] * 10 + list(walk.values), start=1980)
        z = series(x.values, start=1982)
        noise = np.random.default_rng(3).normal(0.0, 0.001, 40)
        y = series(0.01 + 0.4 * np.asarray(x.values) + noise, start=1980)
        data = {"x": x, "y": y, "z": z}
        lags = range(-40, 41)
        for spec in (
            LinkSpec("y", (Predictor("x"),), window=(1980, 1992)),
            LinkSpec("y", (Predictor("x"), Predictor("z")), estimator="cumulative"),
            LinkSpec("y", (Predictor("x"),), break_year=2012, shared=("intercept",)),
        ):
            kept = assert_scores_equal_fits(spec, data, lags)
            assert 0 < kept < len(lags)
        with pytest.raises(EstimationError):
            fit(LinkSpec("y", (Predictor("x", 2), Predictor("z"))), data)

    def test_one_solve_per_scan(self, japan, monkeypatch):
        # lags -5..-1 each end the sample a year earlier; every lag is still
        # one slice of the one frame, the window's 31 response years
        shapes = []
        real = estimate._solve

        def spy(estimator, Xy, n=None):
            shapes.append(Xy.shape)
            return real(estimator, Xy, n)

        monkeypatch.setattr(estimate, "_solve", spy)
        spec = LinkSpec("cpi", (Predictor("labor_force_growth"),), estimator="cumulative",
                        window=(1982, 2012))
        results, _ = scan_lag(spec, japan, range(-5, 6))
        assert len(results) == 11
        assert shapes == [(11, 31, 3)]

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(case=ragged_scans())
    def test_scores_equal_fits_on_ragged_spans(self, case):
        spec, data, lags = case
        try:
            assert_scores_equal_fits(spec, data, lags)
        except InputError as exc:  # only scan_lag's own refusal gets here
            assert str(exc) == "no lag in the range yields a legal sample"
            for lag in lags:
                with pytest.raises((InputError, EstimationError)):
                    fit(replace(spec, predictors=(Predictor("x", lag),)), data)

    def test_duplicate_and_reversed_lags_keep_their_order(self):
        data = ragged_data()
        spec = single_spec("cumulative")
        forward, best = scan_lag(spec, data, range(-5, 6))
        backward, best_rev = scan_lag(spec, data, range(5, -6, -1))
        assert backward == forward[::-1]
        assert best_rev == best
        lags = [3, -2, 3, 0, -2, 99]
        repeated, best_rep = scan_lag(spec, data, lags)
        assert [lag for lag, _ in repeated] == [3, -2, 3, 0, -2]
        assert repeated == [(lag, dict(forward)[lag]) for lag in lags[:-1]]
        assert best_rep == max((3, -2, 0), key=lambda lag: dict(forward)[lag].r2_cumulative)

    def test_computes_no_pvalues(self, monkeypatch):
        def refuse(*_):
            raise AssertionError("a lag scan computed a p-value")

        monkeypatch.setattr(estimate, "t_pvalue", refuse)
        results, _ = scan_lag(single_spec(), ragged_data(), range(-5, 6))
        assert len(results) == 11
        assert all(isinstance(score, estimate.LagScore) for _, score in results)

    @pytest.mark.parametrize("kwargs, message", [
        ({"predictor": "z"}, "predictor 'z'"),
        ({"predictor": "y"}, "predictor 'y'"),
    ])
    def test_bad_predictor(self, kwargs, message):
        with pytest.raises(InputError, match=message):
            scan_lag(single_spec(), ragged_data(), range(-5, 6), **kwargs)

    def test_shared_without_a_break_is_refused(self):
        # a lag scan names the spec's fault, not "no lag ... yields a legal
        # sample"; scan_break supplies the break years and takes such a spec
        # (TestScanBreak::test_profile_matches_one_fit_per_candidate)
        spec = single_spec(shared=("intercept",))
        message = '^"shared" \\[\'intercept\'\\] needs a "break_year"'
        with pytest.raises(InputError, match=message):
            scan_lag(spec, ragged_data(), range(-5, 6))
        with pytest.raises(InputError, match=message):
            fit(spec, ragged_data())

    @pytest.mark.parametrize("lag", [1.5, "1", [1], None])
    def test_non_integral_lag_is_refused(self, lag):
        with pytest.raises(InputError, match="^lag must be an integer"):
            scan_lag(single_spec(), ragged_data(), [0, lag])

    @pytest.mark.parametrize("estimator, criterion", [("ols", "r2_annual"),
                                                      ("cumulative", "r2_cumulative")])
    def test_best_lag_maximizes_the_estimators_r2(self, estimator, criterion):
        results, best = scan_lag(single_spec(estimator), ragged_data(), range(-5, 6))
        assert best == max(results, key=lambda item: getattr(item[1], criterion))[0]


class TestFrame:
    """A sample shorter than its frame, the response's years in the window,
    fills the frame's first rows; the zero rows past it change nothing."""

    @pytest.mark.parametrize("estimator", ["ols", "cumulative"])
    @pytest.mark.parametrize("lag", [-4, 3])
    @pytest.mark.parametrize("extra", [{}, {"break_year": 1995},
                                       {"break_year": 1995, "shared": ("intercept",)}])
    def test_short_sample_fits_as_a_full_frame(self, estimator, lag, extra):
        data = ragged_data()
        spec = LinkSpec("y", (Predictor("x", lag),), estimator=estimator, **extra)
        short = fit(spec, data)
        first, last = short.window
        assert estimate._frame_rows(spec, data) > last - first + 1
        # the response trimmed to the sample: a frame that the sample fills
        full = fit(spec, {**data, "y": data["y"].window(first, last)})
        assert short.window == full.window
        for attr in ("sse_annual", "sse_cumulative", "r2_annual", "r2_cumulative", "sigma"):
            assert getattr(short, attr) == pytest.approx(getattr(full, attr), rel=1e-10), attr
        for table in ("coefficient_table", "stderr", "pvalues"):
            got, want = getattr(short, table), getattr(full, table)
            got, want = (got(), want()) if callable(got) else (got, want)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-12), table
        np.testing.assert_allclose(short.residuals.array, full.residuals.array,
                                   rtol=0, atol=1e-12)


    def test_kernel_stacks_are_zero_past_each_sample(self, monkeypatch):
        from lfphillips import diagnose

        real = diagnose.factor_stack
        padded = []

        def guarded(Xy, n=None):
            if n is not None:
                padded.append(n)
                for slice_, rows in zip(Xy, np.broadcast_to(n, len(Xy))):
                    assert not slice_[rows:].any(), "nonzero row past the sample"
            return real(Xy, n)

        monkeypatch.setattr(estimate, "factor_stack", guarded)
        monkeypatch.setattr(diagnose, "factor_stack", guarded)
        data = ragged_data()
        for estimator in ("ols", "cumulative"):
            for extra in ({}, {"break_year": 1995, "shared": ("intercept",)}):
                spec = single_spec(estimator, **extra)
                scan_lag(spec, data, range(-6, 7))
                fit(replace(spec, predictors=(Predictor("x", -3),)), data)
            scan_break(single_spec(estimator, lag=4), data, range(1985, 2006))
        assert len(padded) == 10


class TestDuplicatePredictors:
    @pytest.mark.parametrize("predictors, message", [
        ((("x", 0), ("x", 1)), "predictor 'x' is named more than once"),
        ((("x", 2), ("x", 2)), "predictor 'x' is named more than once"),
        # a series named like the constant term would get a column of ones
        ((("intercept", 0),), "predictor 'intercept' is the name of the constant term"),
    ])
    def test_refused_predictor_names(self, predictors, message):
        with pytest.raises(InputError, match=message):
            LinkSpec("y", tuple(Predictor(name, lag) for name, lag in predictors))

    @pytest.mark.parametrize("shared, name", [
        (("intercept", "intercept"), "intercept"),
        (("x", "intercept", "x"), "x"),
    ])
    def test_shared_coefficient_named_twice(self, shared, name):
        message = f"^shared coefficient '{name}' is named more than once"
        with pytest.raises(InputError, match=message):
            LinkSpec("y", (Predictor("x"),), break_year=1990, shared=shared)

    def test_other_names_still_fit(self):
        spec = LinkSpec("y", (Predictor("x"), Predictor("z", 1)))
        assert fit(spec, ragged_data()).coefficient_table().keys() == {"intercept", "x", "z"}


class TestColumnMajorStacks:
    """Every stack the kernel factors is column-major in each slice, the
    layout LAPACK's QR reads without a transposing copy."""

    @pytest.mark.parametrize("piecewise", [False, True])
    @pytest.mark.parametrize("with_response", [False, True])
    @pytest.mark.parametrize("per_slice", [False, True])
    def test_design_slices_are_f_contiguous(self, piecewise, with_response, per_slice):
        spec = single_spec(break_year=1990 if piecewise else None)
        labels = estimate._param_labels(spec, piecewise)
        years, x = np.arange(1980, 2000), np.linspace(0.0, 1.0, 20)
        if per_slice:  # one row of years, columns and response per slice
            years, x = np.stack([years, years + 1]), np.stack([x, 2 * x])
        Xy = estimate._design(labels, {"x": x}, years, [1990, None],
                              x + 1.0 if with_response else None)
        assert Xy.shape == (2, 20, len(labels) + with_response)
        assert all(slice_.flags.f_contiguous for slice_ in Xy)

    def test_kernel_reads_only_column_major_stacks(self, monkeypatch):
        from lfphillips import diagnose

        real = diagnose.factor_stack
        seen = []

        def guarded(Xy, n=None):
            seen.append(all(slice_.flags.f_contiguous for slice_ in Xy))
            return real(Xy, n)

        monkeypatch.setattr(estimate, "factor_stack", guarded)
        monkeypatch.setattr(diagnose, "factor_stack", guarded)
        data = ragged_data()
        for estimator in ("ols", "cumulative"):
            fit(single_spec(estimator), data)
            fit(single_spec(estimator, break_year=1995, shared=("intercept",)), data)
            scan_lag(single_spec(estimator), data, range(-3, 4))
            scan_break(single_spec(estimator), data, range(1985, 2006))
        diagnose.adf_test(fit(single_spec(), data).residuals, lag_order=2)
        assert len(seen) >= 9 and all(seen)


class TestNoQFormingSolve:
    def test_designs_are_factorized_r_only(self, monkeypatch):
        """Every QR of an n-row design is R-only; only the k x 1 endpoint
        constraint of the cumulative estimator forms its complete Q."""
        from lfphillips.diagnose import adf_test

        real_qr = np.linalg.qr
        calls = []

        def guarded(a, mode="reduced"):
            calls.append((np.shape(a), mode))
            return real_qr(a, mode=mode)

        monkeypatch.setattr(np.linalg, "qr", guarded)
        data = ragged_data()  # every sample below has at least 20 rows
        for estimator in ("ols", "cumulative"):
            fit(single_spec(estimator), data)
            fit(single_spec(estimator, break_year=1995), data)
            scan_lag(single_spec(estimator), data, range(-3, 4))
            scan_break(single_spec(estimator), data, range(1985, 2006))
        adf_test(fit(single_spec(), data).residuals, lag_order=2)
        assert {mode for _, mode in calls} == {"r", "complete"}
        for shape, mode in calls:
            if mode == "r":
                assert shape[-2] >= 20
            else:
                assert mode == "complete" and shape[-1] == 1 and shape[-2] <= 4, (shape, mode)


class TestLongFitMemory:
    @pytest.mark.parametrize("extra", [{}, {"break_year": 3000, "shared": ("intercept",)}])
    def test_cumulative_fit_factors_its_reduced_stack_in_place(self, traced_peak, extra):
        """At n=4000 a cumulative fit's working set stays under four copies of
        its (F, k+1) stack [X | y]: the kernel factors the reduced stack where
        the estimator built it."""
        x, y = generate(SynthSpec(intercept=0.005, slope=1.2, break_year=3000,
                                  post_intercept=0.005, post_slope=-0.8, noise_sigma=0.003,
                                  length=4000, seed=5, start_year=1000))
        spec = single_spec("cumulative", **extra)
        stack = 4000 * (len(estimate._param_labels(spec, "break_year" in extra)) + 1) * 8
        assert traced_peak(lambda: fit(spec, {"x": x, "y": y})) < 4 * stack


class TestOneCandidatePath:
    """A fit, a lag scan and a break scan reach the solve only through the one
    candidate builder and the one scorer, so no scan grows a path of its own."""

    @staticmethod
    def users() -> dict[str, set[str]]:
        """Every name read in ``estimate.py``, mapped to the top-level
        functions (or class methods) that read it."""
        tree = ast.parse(Path(estimate.__file__).read_text(encoding="utf-8"))
        top = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
        top += [node for cls in tree.body if isinstance(cls, ast.ClassDef)
                for node in cls.body if isinstance(node, ast.FunctionDef)]
        users: dict[str, set[str]] = {}
        for function in top:
            for node in ast.walk(function):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    users.setdefault(node.id, set()).add(function.name)
        return users

    @pytest.mark.parametrize("name, owner", [
        ("_solve", "_stack_curves"),
        ("factor_stack", "_factor"),
        ("_aligned_sample", "_candidates"),
        ("_sample", "_candidates"),
    ])
    def test_reached_only_from_its_owner(self, name, owner):
        assert self.users().get(name, set()) <= {owner}

    def test_fits_and_scans_use_the_builder_and_the_scorer(self):
        users = self.users()
        assert users["_candidates"] == users["_score"] == {"fit", "scan_lag", "scan_break"}
        assert users["_solve"] == {"_stack_curves"}
        # a break scan stops at the factor of the reduced stack
        assert users["_stack_curves"] == {"fit", "scan_lag"}
        assert users["_reduce"] == {"_solve", "_factor"}
        assert users["_factor"] == {"scan_break"}
        retired = {"_fit_sample", "_break_error", "_lag_scores", "_break_sse", "_passes"}
        assert not retired & set(vars(estimate))


class TestBenchmarkAdapters:
    """``ols_fit``, ``cumulative_fit`` and ``fit_piecewise`` are what ``fit``
    returns for the spec with the adapter's estimator, field by field, with or
    without a break year; they stay until the benchmark stops naming them."""

    @pytest.mark.parametrize("adapter, estimator", [
        ("ols_fit", "ols"), ("cumulative_fit", "cumulative"), ("fit_piecewise", None)])
    @pytest.mark.parametrize("extra", [{}, {"break_year": 1995, "shared": ("intercept",)}])
    @pytest.mark.parametrize("given_estimator", ["ols", "cumulative"])
    def test_adapter_returns_the_fit(self, adapter, estimator, extra, given_estimator):
        x, y = generate(SynthSpec(intercept=0.01, slope=1.1, noise_sigma=0.003,
                                  length=40, seed=37))
        data = {"x": x, "y": y}
        spec = single_spec(given_estimator, **extra)
        got = getattr(estimate, adapter)(spec, data)
        want = fit(replace(spec, estimator=estimator or given_estimator), data)
        for f in fields(estimate.FitResult):
            assert getattr(got, f.name) == getattr(want, f.name), f.name


class TestScanLagMissingSeries:
    """A missing series fails every lag alike; scan_lag names it before it reads a lag."""

    @pytest.mark.parametrize("present, message", [
        ("y", "^predictor series 'x' missing from data$"),
        ("x", "^response series 'y' missing from data$"),
    ])
    @pytest.mark.parametrize("lags", [range(-1, 2), [], ["not a lag"]])
    def test_missing_series_is_named(self, present, message, lags):
        x, y = generate(SynthSpec(intercept=0.0, slope=1.0, length=40, seed=1))
        data = {"x": x, "y": y}
        with pytest.raises(InputError, match=message):
            scan_lag(single_spec(), {present: data[present]}, lags)
