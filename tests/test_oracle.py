import numpy as np
import pytest

from lfphillips.errors import EstimationError, InputError
from lfphillips.estimate import LinkSpec, Predictor, fit
from lfphillips.oracle import (
    GROWTH_BOUND,
    SynthSpec,
    brute_force_constrained,
    brute_force_ols,
    constrained_cumulative_sse,
    generate,
)
from lfphillips.series import align


class TestGenerate:
    def test_noise_free_on_line(self):
        x, y = generate(SynthSpec(intercept=0.01, slope=1.5, length=30, seed=1))
        for xv, yv in zip(x.values, y.values):
            assert yv == pytest.approx(0.01 + 1.5 * xv, abs=1e-15)

    def test_seed_determinism(self):
        a = generate(SynthSpec(intercept=0.0, slope=1.0, noise_sigma=0.01, length=30, seed=5))
        b = generate(SynthSpec(intercept=0.0, slope=1.0, noise_sigma=0.01, length=30, seed=5))
        assert a == b

    def test_different_seeds_differ(self):
        a = generate(SynthSpec(intercept=0.0, slope=1.0, length=30, seed=1))
        b = generate(SynthSpec(intercept=0.0, slope=1.0, length=30, seed=2))
        assert a != b

    def test_growth_stays_bounded(self):
        x, _ = generate(SynthSpec(intercept=0.0, slope=1.0, length=200, seed=9))
        assert all(abs(v) <= GROWTH_BOUND + 1e-12 for v in x.values)

    def test_lag_indexing(self):
        x, y = generate(SynthSpec(intercept=0.0, slope=2.0, lag=3, length=30, seed=4))
        # response at year t reads the predictor value stored at year t - 3
        assert y.value(1990) == pytest.approx(2.0 * x.value(1987), abs=1e-15)

    def test_validation(self):
        with pytest.raises(InputError):
            SynthSpec(intercept=0, slope=1, noise_sigma=-1)
        with pytest.raises(InputError):
            SynthSpec(intercept=0, slope=1, length=5)
        with pytest.raises(InputError):
            SynthSpec(intercept=0, slope=1, break_year=1990)

    def test_cumulative_recovery_over_seeds(self):
        # the published CPI-style configuration: slope well recovered on average
        slopes = []
        for seed in range(100):
            x, y = generate(SynthSpec(intercept=0.0007, slope=1.31, noise_sigma=0.002,
                                      length=40, seed=seed))
            spec = LinkSpec("y", (Predictor("x"),), estimator="cumulative")
            r = fit(spec, {"x": x, "y": y})
            slopes.append(r.segments[0].slopes["x"])
        assert np.mean(slopes) == pytest.approx(1.31, abs=0.05)


class TestBruteForceOls:
    def test_exact_line(self):
        X = np.column_stack([np.ones(3), [1.0, 2.0, 3.0]])
        beta = brute_force_ols(X, np.array([2.0, 4.0, 6.0]))
        assert beta == pytest.approx([0.0, 2.0], abs=1e-12)

    def test_singular(self):
        X = np.column_stack([np.ones(5), np.ones(5)])
        with pytest.raises(EstimationError):
            brute_force_ols(X, np.arange(5.0))

    def test_agrees_with_main_estimator(self):
        x, y = generate(SynthSpec(intercept=0.02, slope=-0.8, noise_sigma=0.004,
                                  length=45, seed=33))
        r = fit(LinkSpec("y", (Predictor("x"),)), {"x": x, "y": y})
        (ys, xs), _ = align([(y, 0), (x, 0)])
        beta = brute_force_ols(np.column_stack([np.ones(len(xs)), xs]), np.array(ys))
        assert r.segments[0].intercept == pytest.approx(beta[0], abs=1e-10)
        assert r.segments[0].slopes["x"] == pytest.approx(beta[1], abs=1e-10)


class TestBruteForceConstrained:
    def test_noise_free_grid_optimum(self):
        x, y = generate(SynthSpec(intercept=0.01, slope=1.5, length=30, seed=2))
        grid = np.arange(1.0, 2.0, 0.01)
        alpha, beta = brute_force_constrained(x.values, y.values, grid)
        assert beta == pytest.approx(1.5, abs=0.01)
        assert alpha == pytest.approx(0.01, abs=0.02)

    def test_nested_grids_monotone(self):
        x, y = generate(SynthSpec(intercept=0.0, slope=1.2, noise_sigma=0.01,
                                  length=30, seed=3))
        sses = []
        for step in (0.1, 0.05, 0.025):
            grid = np.arange(0.5, 2.0 + step / 2, step)
            alpha, beta = brute_force_constrained(x.values, y.values, grid)
            sses.append(constrained_cumulative_sse(alpha, beta,
                                                   np.array(x.values), np.array(y.values)))
        assert sses[0] >= sses[1] >= sses[2]

    def test_constraint_holds_on_grid(self):
        x, y = generate(SynthSpec(intercept=0.004, slope=0.9, noise_sigma=0.005,
                                  length=25, seed=6))
        alpha, beta = brute_force_constrained(x.values, y.values, np.arange(0, 2, 0.05))
        xv, yv = np.array(x.values), np.array(y.values)
        assert np.cumsum(alpha + beta * xv)[-1] == pytest.approx(np.cumsum(yv)[-1],
                                                                 abs=1e-10)


class TestEstimatorsAgreeNoiseFree:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_all_agree(self, seed):
        x, y = generate(SynthSpec(intercept=0.005, slope=1.7, length=35, seed=seed))
        data = {"x": x, "y": y}
        spec = LinkSpec("y", (Predictor("x"),))
        r_ols = fit(spec, data)
        r_cum = fit(LinkSpec("y", (Predictor("x"),), estimator="cumulative"), data)
        (ys, xs), _ = align([(y, 0), (x, 0)])
        b_ne = brute_force_ols(np.column_stack([np.ones(len(xs)), xs]), np.array(ys))
        a_gr, b_gr = brute_force_constrained(xs, ys, np.arange(1.6, 1.8, 0.0005))
        for intercept, slope, tol in [
            (r_ols.segments[0].intercept, r_ols.segments[0].slopes["x"], 1e-8),
            (r_cum.segments[0].intercept, r_cum.segments[0].slopes["x"], 1e-8),
            (b_ne[0], b_ne[1], 1e-8),
            (a_gr, b_gr, 5e-4),
        ]:
            assert intercept == pytest.approx(0.005, abs=tol)
            assert slope == pytest.approx(1.7, abs=tol)
