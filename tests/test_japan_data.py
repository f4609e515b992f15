"""Checks against the bundled Japan dataset.

These are data-conditional: they refit the published model forms on the
transcribed 1960-2012 vintage shipped in data/japan and assert the
coefficients land inside tolerance bands around the published values.
Later agency revisions of the same series would move the point estimates,
which is why every assertion here is a band, not an exact number.
"""

import pytest

from lfphillips.estimate import LinkSpec, Predictor, fit, predict, scan_break, scan_lag

POST_BREAK = (1982, 2012)


class TestPhillipsScatter:
    """Annual CPI inflation against unemployment, post-1982 regime."""

    def test_ols_coefficients(self, japan):
        spec = LinkSpec("cpi", (Predictor("unemployment"),), window=POST_BREAK)
        r = fit(spec, japan)
        seg = r.segments[0]
        assert seg.slopes["unemployment"] == pytest.approx(-0.93, abs=0.15)
        assert seg.intercept == pytest.approx(0.041, abs=0.010)
        assert r.r2_annual == pytest.approx(0.70, abs=0.07)

    def test_slope_significant(self, japan):
        spec = LinkSpec("cpi", (Predictor("unemployment"),), window=POST_BREAK)
        r = fit(spec, japan)
        assert r.pvalues["unemployment"] < 1e-6


class TestUnemploymentOnInflation:
    def test_cumulative_refit(self, japan):
        # the inverse link: u driven by CPI inflation, endpoint-constrained
        spec = LinkSpec("unemployment", (Predictor("cpi"),),
                        estimator="cumulative", window=POST_BREAK)
        r = fit(spec, japan)
        seg = r.segments[0]
        assert seg.slopes["cpi"] == pytest.approx(-1.10, abs=0.20)
        assert seg.intercept == pytest.approx(0.044, abs=0.005)
        assert r.sigma == pytest.approx(0.007, abs=0.002)


class TestInflationOnLaborForceGrowth:
    def test_cpi_link(self, japan):
        spec = LinkSpec("cpi", (Predictor("labor_force_growth"),),
                        estimator="cumulative", window=POST_BREAK)
        r = fit(spec, japan)
        seg = r.segments[0]
        assert seg.intercept == pytest.approx(0.0007, abs=0.002)
        assert seg.slopes["labor_force_growth"] == pytest.approx(1.31, abs=0.25)

    def test_dgdp_link(self, japan):
        spec = LinkSpec("dgdp", (Predictor("labor_force_growth"),),
                        estimator="cumulative", window=POST_BREAK)
        r = fit(spec, japan)
        seg = r.segments[0]
        assert seg.intercept == pytest.approx(-0.0084, abs=0.002)
        assert seg.slopes["labor_force_growth"] == pytest.approx(1.90, abs=0.20)

    def test_dgdp_cumulative_fit_is_tight(self, japan):
        spec = LinkSpec("dgdp", (Predictor("labor_force_growth"),),
                        estimator="cumulative", window=POST_BREAK)
        assert fit(spec, japan).r2_cumulative >= 0.97


class TestRegimeChange:
    def test_break_scan_lands_early_1980s(self, japan):
        spec = LinkSpec("cpi", (Predictor("unemployment"),), estimator="cumulative")
        _, best = scan_break(spec, japan, candidate_years=range(1975, 1995))
        assert 1981 <= best <= 1983

    def test_lag_scan_prefers_contemporaneous(self, japan):
        spec = LinkSpec("cpi", (Predictor("labor_force_growth"),),
                        estimator="cumulative", window=POST_BREAK)
        _, best = scan_lag(spec, japan, lag_range=range(-3, 4))
        assert best == 0


class TestUnemploymentOnGrowthPiecewise:
    def test_post_1977_segment(self, japan):
        # shared intercept across the 1977 break; only the post segment is
        # checked tightly, the short early segment is vintage-sensitive
        spec = LinkSpec("unemployment", (Predictor("labor_force_growth"),),
                        estimator="cumulative", break_year=1977,
                        shared=("intercept",))
        r = fit(spec, japan)
        post = r.segments[-1]
        assert post.intercept == pytest.approx(0.0432, abs=0.003)
        assert post.slopes["labor_force_growth"] == pytest.approx(-1.556, abs=0.30)
        assert r.r2_cumulative > 0.99


class TestResidualUnits:
    def test_inflation_residuals_carry_response_units(self, japan):
        spec = LinkSpec("cpi", (Predictor("labor_force_growth"),), estimator="cumulative")
        r = fit(spec, japan)
        assert japan["cpi"].units == "fraction-per-year"
        assert r.residuals.units == "fraction-per-year"
        assert predict(r, japan, range(1990, 2000)).units == "fraction-per-year"

    def test_unemployment_residuals_stay_fractions(self, japan):
        r = fit(LinkSpec("unemployment", (Predictor("labor_force_growth"),)), japan)
        assert r.residuals.units == japan["unemployment"].units == "fraction"
