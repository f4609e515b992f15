"""Acceptance gate: one test per release criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or in
captured output on failure) and enforces the stated numeric tolerance.
Criteria 4 and 5 refit on the bundled Japan vintage and are band checks;
all others run on synthetic data or packaged artifacts and are exact.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from lfphillips import diagnose, forecast
from lfphillips.cli import main as cli_main
from lfphillips.estimate import (
    LinkSpec,
    Predictor,
    fit,
    scan_break,
)
from lfphillips.oracle import (
    SynthSpec,
    brute_force_constrained,
    brute_force_ols,
    generate,
)
from lfphillips.series import AnnualSeries, align
from tests.conftest import DATA_DIR


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {title}")
        raise
    print(f"PASS criterion {number}: {title}")


def frac(values, start=1980):
    return AnnualSeries(start, tuple(values), units="fraction")


def test_criterion_1_noise_free_recovery():
    with criterion(1, "noise-free parameter recovery to 1e-8 in under 1s"):
        t0 = time.monotonic()
        flat_configs = [
            (0.0007, 1.31),    # CPI-style link
            (-0.0084, 1.90),   # deflator-style link
            (0.044, -1.10),    # unemployment-on-inflation style link
        ]
        for intercept, slope in flat_configs:
            x, y = generate(SynthSpec(intercept=intercept, slope=slope,
                                      length=40, seed=7))
            data = {"x": x, "y": y}
            for estimator in ("ols", "cumulative"):
                r = fit(LinkSpec("y", (Predictor("x"),), estimator=estimator), data)
                seg = r.segments[0]
                assert seg.intercept == pytest.approx(intercept, abs=1e-8)
                assert seg.slopes["x"] == pytest.approx(slope, abs=1e-8)
        # piecewise: shared intercept, per-segment slope
        x, y = generate(SynthSpec(intercept=0.0432, slope=-0.179, break_year=1997,
                                  post_intercept=0.0432, post_slope=-1.556,
                                  length=40, seed=7))
        spec = LinkSpec("y", (Predictor("x"),), estimator="cumulative",
                        break_year=1997, shared=("intercept",))
        r = fit(spec, {"x": x, "y": y})
        assert r.segments[0].intercept == pytest.approx(0.0432, abs=1e-8)
        assert r.segments[0].slopes["x"] == pytest.approx(-0.179, abs=1e-8)
        assert r.segments[1].slopes["x"] == pytest.approx(-1.556, abs=1e-8)
        assert time.monotonic() - t0 < 1.0


def test_criterion_2_estimators_match_oracles():
    with criterion(2, "100-seed agreement with independent oracles in under 10s"):
        t0 = time.monotonic()
        grid_step = 0.002
        for seed in range(100):
            x, y = generate(SynthSpec(intercept=0.005, slope=1.4, noise_sigma=0.003,
                                      length=40, seed=seed))
            data = {"x": x, "y": y}
            (ys, xs), _ = align([(y, 0), (x, 0)])
            # annual least squares vs explicit normal equations
            r = fit(LinkSpec("y", (Predictor("x"),)), data)
            beta = brute_force_ols(np.column_stack([np.ones(len(xs)), xs]),
                                   np.array(ys))
            assert r.segments[0].intercept == pytest.approx(beta[0], abs=1e-10)
            assert r.segments[0].slopes["x"] == pytest.approx(beta[1], abs=1e-10)
            # constrained cumulative solver vs exhaustive slope grid
            rc = fit(LinkSpec("y", (Predictor("x"),), estimator="cumulative"), data)
            b_hat = rc.segments[0].slopes["x"]
            grid = np.arange(b_hat - 0.05, b_hat + 0.05 + grid_step / 2, grid_step)
            _, b_grid = brute_force_constrained(xs, ys, grid)
            assert abs(b_grid - b_hat) <= grid_step + 1e-12
        assert time.monotonic() - t0 < 10.0


def test_criterion_3_endpoint_constraint(japan):
    with criterion(3, "cumulative fits satisfy the endpoint constraint to 1e-12"):
        cases = []
        for seed in range(10):
            x, y = generate(SynthSpec(intercept=0.01, slope=-0.8, noise_sigma=0.005,
                                      length=35, seed=seed))
            cases.append((LinkSpec("y", (Predictor("x"),), estimator="cumulative"),
                          {"x": x, "y": y}))
        cases.append((LinkSpec("cpi", (Predictor("labor_force_growth"),),
                               estimator="cumulative", window=(1982, 2012)), japan))
        cases.append((LinkSpec("unemployment", (Predictor("labor_force_growth"),),
                               estimator="cumulative", break_year=1977,
                               shared=("intercept",)), japan))
        for spec, data in cases:
            r = fit(spec, data)
            assert abs(sum(r.residuals.values)) < 1e-12


def test_criterion_4_published_phillips_bands(japan):
    with criterion(4, "Japan refits land in the published coefficient bands"):
        r = fit(LinkSpec("cpi", (Predictor("unemployment"),), window=(1982, 2012)),
                japan)
        seg = r.segments[0]
        assert seg.slopes["unemployment"] == pytest.approx(-0.93, abs=0.15)
        assert seg.intercept == pytest.approx(0.041, abs=0.010)
        assert r.r2_annual == pytest.approx(0.70, abs=0.07)
        rc = fit(LinkSpec("unemployment", (Predictor("cpi"),),
                          estimator="cumulative", window=(1982, 2012)), japan)
        assert rc.segments[0].slopes["cpi"] == pytest.approx(-1.10, abs=0.20)
        assert rc.sigma == pytest.approx(0.007, abs=0.002)


def test_criterion_5_deflator_cumulative_fit(japan):
    with criterion(5, "deflator-vs-growth cumulative R^2 at least 0.97"):
        r = fit(LinkSpec("dgdp", (Predictor("labor_force_growth"),),
                         estimator="cumulative", window=(1982, 2012)), japan)
        assert r.r2_cumulative >= 0.97


def test_criterion_6_forecast_oracle(japan_scenario_path):
    with criterion(6, "published decline scenario reproduces the stated paths in under 1s"):
        t0 = time.monotonic()
        scenario = forecast.load_scenario(japan_scenario_path)
        report = forecast.forecast_report(
            [forecast.MODEL_REGISTRY["eq8"], forecast.MODEL_REGISTRY["eq9"]], scenario
        )
        pi = report.inflation["eq8"]
        mean_pi = sum(pi.values) / len(pi.values)
        assert -0.022 <= mean_pi <= -0.004
        assert pi.value(2050) == pytest.approx(-0.020, abs=0.004)
        u = report.unemployment["eq9"]
        assert 0.050 <= u.value(2050) <= 0.060
        assert time.monotonic() - t0 < 1.0


def test_criterion_7_unit_root_test_behaviour():
    with criterion(7, "stationarity test separates white noise from random walks"):
        n_reject_noise = 0
        n_accept_walk = 0
        for seed in range(100):
            rng = np.random.Generator(np.random.PCG64(seed))
            noise = rng.normal(0.0, 1.0, 100)
            if diagnose.adf_test(frac(noise)).rejects_unit_root(0.05):
                n_reject_noise += 1
            rng = np.random.Generator(np.random.PCG64(10_000 + seed))
            walk = np.cumsum(rng.normal(0.0, 1.0, 100))
            if not diagnose.adf_test(frac(walk)).rejects_unit_root(0.05):
                n_accept_walk += 1
        assert n_reject_noise >= 95
        assert n_accept_walk >= 90
        rng = np.random.Generator(np.random.PCG64(1))
        s = frac(rng.normal(0.0, 1.0, 120))
        assert diagnose.adf_test(s).statistic == pytest.approx(
            diagnose.adf_test(s.scale(1e6)).statistic, abs=1e-10
        )


def test_criterion_8_cli_determinism(japan_scenario_path, tmp_path):
    with criterion(8, "repeated CLI runs produce byte-identical artifacts"):
        manifest = DATA_DIR / "manifest.json"

        def artifacts(tag):
            out = tmp_path / tag
            assert cli_main(["--manifest", str(manifest), "--out", str(out),
                             "--window", "1982:2012", "fit",
                             "--response", "cpi", "--predictor", "unemployment"]) == 0
            assert cli_main(["--out", str(out), "--format", "csv,json,svg",
                             "forecast", "--scenario", str(japan_scenario_path),
                             "--models", "eq8,eq9"]) == 0
            assert cli_main(["--manifest", str(manifest), "--out", str(out),
                             "plot", "--series", "cpi,dgdp"]) == 0
            return {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        first = artifacts("a")
        second = artifacts("b")
        assert first == second
        assert any(name.endswith(".svg") for name in first)
        assert json.loads(first["fit.json"].decode()) == \
            json.loads(second["fit.json"].decode())


def test_criterion_9_break_detection():
    with criterion(9, "break scan recovers an injected break in at least 90 of 100 runs"):
        hits = 0
        for seed in range(100):
            # slope contrast dwarfs the noise floor by construction
            x, y = generate(SynthSpec(intercept=0.02, slope=-1.5, break_year=1998,
                                      post_intercept=0.02, post_slope=-0.1,
                                      noise_sigma=0.001, length=40, seed=seed))
            spec = LinkSpec("y", (Predictor("x"),), shared=("intercept",))
            _, best = scan_break(spec, {"x": x, "y": y},
                                 candidate_years=range(1990, 2010))
            if best == 1998:
                hits += 1
        assert hits >= 90
