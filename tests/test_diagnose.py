import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats

from lfphillips import diagnose
from lfphillips.diagnose import (
    adf_test,
    df_critical_values,
    least_squares_stack,
    r_squared_stack,
    residual_sigma_values,
    t_pvalue,
)
from lfphillips.errors import DomainError, EstimationError, InputError
from lfphillips.oracle import SynthSpec, brute_force_ols, generate
from lfphillips.series import AnnualSeries


def frac(values, start=1980):
    return AnnualSeries(start, tuple(values), units="fraction")


class TestRSquared:
    def test_perfect_fit(self):
        a = np.array([1.0, 2.0, 3.0, 4.0])
        assert r_squared_stack(a, a) == pytest.approx(1.0, abs=1e-15)

    def test_mean_prediction_is_zero(self):
        obs = np.array([1.0, 2.0, 3.0, 4.0])
        assert r_squared_stack(obs, np.full(4, 2.5)) == pytest.approx(0.0, abs=1e-15)

    def test_can_be_negative(self):
        obs = np.array([1.0, 2.0, 3.0])
        assert r_squared_stack(obs, np.array([10.0, -10.0, 10.0])) < 0

    def test_zero_variance(self):
        assert math.isnan(r_squared_stack(np.ones(3), np.ones(3)))

    def test_zero_rows_past_the_sample_are_not_read(self):
        # a constant slice stays NaN although its padding differs from it
        obs = np.array([[1.0, 2.0, 4.0, 3.0, 0.0, 0.0], [0.5, 0.5, 0.5, 0.0, 0.0, 0.0]])
        pred = np.array([[1.5, 2.0, 3.0, 3.5, 0.0, 0.0], [0.5, 0.5, 0.5, 0.0, 0.0, 0.0]])
        got = r_squared_stack(obs, pred, np.array([4, 3]))
        assert got[0] == pytest.approx(r_squared_stack(obs[0, :4], pred[0, :4]), rel=1e-15)
        assert math.isnan(got[1])


class TestResidualSigma:
    def test_zero_residuals(self):
        assert residual_sigma_values(np.zeros(3)) == 0.0

    def test_n_divisor(self):
        assert residual_sigma_values(np.array([-0.01, 0.01])) == pytest.approx(0.01, abs=1e-15)

    def test_scales_linearly(self):
        r = np.array([0.004, -0.002, 0.006, -0.008])
        assert residual_sigma_values(5.0 * r) == pytest.approx(5 * residual_sigma_values(r),
                                                               rel=1e-12)


def _seeded_design(broken: bool, seed: int):
    """Intercept-and-slope design, split into pre/post columns when broken."""
    x, y = generate(SynthSpec(intercept=0.01, slope=-0.8, noise_sigma=0.002, seed=seed,
                              break_year=2000 if broken else None,
                              post_intercept=0.02 if broken else None,
                              post_slope=0.4 if broken else None))
    xs, ys = np.asarray(x.values), np.asarray(y.values)
    base = np.column_stack([np.ones(len(xs)), xs])
    if not broken:
        return base, ys
    post = (np.arange(len(xs)) + x.start_year >= 2000)[:, None]
    return np.hstack([np.where(post, 0.0, base), np.where(post, base, 0.0)]), ys


def _stack_of_one(X, y):
    """The (1, n, k+1) stack [X | y] that the kernel solves."""
    return np.column_stack([X, y])[None]


class TestLeastSquares:
    @pytest.mark.parametrize("broken", [False, True])
    @pytest.mark.parametrize("seed", [0, 7, 42])
    def test_matches_normal_equations_oracle(self, broken, seed):
        X, y = _seeded_design(broken, seed)
        assert X.shape[1] == (4 if broken else 2)
        beta, rss, _, full_rank = least_squares_stack(_stack_of_one(X, y))
        assert full_rank[0]
        expected = brute_force_ols(X, y)
        np.testing.assert_allclose(beta[0], expected, rtol=0, atol=1e-10)
        sse = float(np.sum((y - X @ expected) ** 2))
        np.testing.assert_allclose(rss[0], sse, rtol=1e-12)

    def test_collinear_design_is_rank_deficient(self):
        X, y = _seeded_design(False, 0)
        _, _, _, full_rank = least_squares_stack(
            _stack_of_one(np.column_stack([X, 3.0 * X[:, 1]]), y))
        assert not full_rank[0]

    def test_fewer_rows_than_columns_raises(self):
        with pytest.raises(EstimationError):
            least_squares_stack(_stack_of_one(np.eye(2, 3), np.ones(2)))

    @pytest.mark.parametrize("broken", [False, True])
    def test_r_inverse_gives_normal_matrix_inverse(self, broken):
        X, y = _seeded_design(broken, 3)
        _, _, r_inv, _ = least_squares_stack(_stack_of_one(X, y))
        np.testing.assert_allclose(r_inv[0] @ r_inv[0].T, np.linalg.inv(X.T @ X), rtol=1e-9)

    def test_square_design_interpolates_with_zero_rss(self):
        rng = np.random.default_rng(8)
        X, y = rng.normal(size=(3, 3)), rng.normal(size=3)
        beta, rss, _, full_rank = least_squares_stack(_stack_of_one(X, y))
        assert full_rank[0]
        assert rss[0] == 0.0
        np.testing.assert_allclose(X @ beta[0], y, rtol=0, atol=1e-12)

    def test_rank_deficient_slice_leaves_the_others_unchanged(self):
        slices = [_stack_of_one(*_seeded_design(True, seed))[0] for seed in (0, 7, 42)]
        slices[1][:, 3] = 2.0 * slices[1][:, 2]  # post slope column = 2 x post intercept column
        beta, rss, r_inv, full_rank = least_squares_stack(np.stack(slices))
        assert full_rank.tolist() == [True, False, True]
        for i in (0, 2):
            alone = least_squares_stack(slices[i][None])
            for got, want in zip((beta, rss, r_inv), alone):
                np.testing.assert_array_equal(got[i], want[0])


def _near_threshold_design(n=10, ratio=20):
    """[1 | 1 + d v | y] with v a unit vector orthogonal to 1, so that
    |R22| / |R11| = ratio * eps: full rank at the tolerance of n rows, rank
    deficient at that of 4n."""
    v = np.resize([1.0, -1.0], n) / math.sqrt(n)
    d = ratio * np.finfo(float).eps * math.sqrt(n)
    return np.column_stack([np.ones(n), 1.0 + d * v]), np.linspace(0.0, 1.0, n)


def _doubled_intercept_design(seed):
    X, y = _seeded_design(False, seed)
    return np.column_stack([X, np.ones(len(y))]), y


class TestZeroPadding:
    """A slice padded with zero rows and solved at its own row count is the
    unpadded slice: the same rank decision and the same solution."""

    @pytest.mark.parametrize("design, full, compare_beta", [
        (lambda: _seeded_design(False, 5), True, True),
        (lambda: _seeded_design(True, 6), True, True),
        (lambda: _doubled_intercept_design(7), False, False),
        # cond ~ 1e14: the rank decision is what is compared
        (_near_threshold_design, True, False),
    ])
    def test_padding_keeps_rank_and_solution(self, design, full, compare_beta):
        X, y = design()
        Xy = _stack_of_one(X, y)
        padded = np.concatenate([Xy, np.zeros((1, 3 * len(y), Xy.shape[-1]))], axis=1)
        beta, rss, _, full_rank = least_squares_stack(Xy)
        got_beta, got_rss, _, got_full = least_squares_stack(padded, np.array([len(y)]))
        assert full_rank[0] == got_full[0] == full
        if compare_beta:
            np.testing.assert_allclose(got_beta[0], beta[0], rtol=0, atol=1e-12)
            np.testing.assert_allclose(got_rss[0], rss[0], rtol=1e-12)

    def test_tolerance_reads_each_slices_own_rows(self):
        X, y = _near_threshold_design()
        padded = np.concatenate([_stack_of_one(X, y), np.zeros((1, 30, 3))], axis=1)
        # at the frame's 40 rows the same slice would be rank deficient
        assert not least_squares_stack(padded)[3][0]
        assert least_squares_stack(padded, np.array([10]))[3][0]

    def test_square_sample_in_a_taller_frame_has_zero_rss(self):
        rng = np.random.default_rng(8)
        X, y = rng.normal(size=(3, 3)), rng.normal(size=3)
        padded = np.concatenate([_stack_of_one(X, y), np.zeros((1, 5, 4))], axis=1)
        beta, rss, _, full_rank = least_squares_stack(padded, np.array([3]))
        assert full_rank[0] and rss[0] == 0.0
        np.testing.assert_allclose(X @ beta[0], y, rtol=0, atol=1e-12)


def _qr_test_stack(frame, cols, layout, variant):
    """A (1, F, k+1) stack of seeded columns after an intercept, its slice in
    ``layout`` order, and its sample length n: the first ``frame // 2 + 1``
    rows when ``variant`` is "padded" (zero past them), else None. A
    "deficient" stack's last design column is twice its intercept, or zero
    when the intercept is that column."""
    rng = np.random.default_rng(100 * frame + 10 * cols + (layout == "column"))
    Xy = rng.normal(size=(frame, cols))
    Xy[:, 0] = 1.0
    if variant == "deficient":
        Xy[:, cols - 2] = 2.0 if cols > 2 else 0.0
    n = None
    if variant == "padded":
        n = np.array([frame // 2 + 1])
        Xy[n[0]:] = 0.0
    return (np.asfortranarray(Xy) if layout == "column" else np.ascontiguousarray(Xy))[None], n


class TestInPlaceQr:
    """A stack of one is factored by lapack_lite's dgeqrf in its own buffer, a
    stack of several by np.linalg.qr; both must give the same bits, on every
    numpy this package supports."""

    @pytest.mark.parametrize("variant", ["full", "padded", "deficient"])
    @pytest.mark.parametrize("layout", ["column", "row"])
    @pytest.mark.parametrize("cols", range(2, 9))
    @pytest.mark.parametrize("frame", [6, 42, 4000])
    def test_equals_the_batched_qr_bit_for_bit(self, frame, cols, layout, variant):
        Xy, n = _qr_test_stack(frame, cols, layout, variant)
        original = Xy.copy()
        if frame < cols - 1:
            with pytest.raises(EstimationError):
                least_squares_stack(Xy, n)
            return
        r = np.linalg.qr(original, mode="r")
        # a stack of two goes through np.linalg.qr, and its first slice is this stack
        twice = least_squares_stack(np.concatenate([original, original]),
                                    None if n is None else np.concatenate([n, n]))
        got = least_squares_stack(Xy, n)
        for name, have, want in zip(("beta", "rss", "R^-1", "full_rank"), got, twice):
            np.testing.assert_array_equal(have[0], want[0], err_msg=name)
        rows = frame if n is None else n[0]
        assert got[3][0] == (variant != "deficient" and rows >= cols - 1)
        if layout == "column":  # factored in place: R on the upper triangle
            np.testing.assert_array_equal(np.triu(Xy[0, :len(r[0])]), r[0])
        else:
            np.testing.assert_array_equal(Xy, original)
        np.testing.assert_array_equal(diagnose._qr_r_in_place(original[0]), r[0])

    def test_read_only_stack_of_one_is_copied(self):
        Xy, _ = _qr_test_stack(42, 4, "column", "full")
        original = Xy.copy()
        Xy.flags.writeable = False
        for have, want in zip(least_squares_stack(Xy), least_squares_stack(original.copy())):
            np.testing.assert_array_equal(have, want)
        np.testing.assert_array_equal(Xy, original)

    def test_stack_of_several_is_left_unchanged(self):
        Xy = np.concatenate([_qr_test_stack(42, 4, "column", v)[0] for v in ("full", "padded")])
        original = Xy.copy()
        least_squares_stack(Xy, np.array([42, 22]))
        np.testing.assert_array_equal(Xy, original)


class TestTPvalue:
    def test_zero_statistic(self):
        assert t_pvalue(0.0, 10) == 1.0

    def test_symmetry(self):
        for t in (0.5, 1.7, 3.3, 8.0):
            assert t_pvalue(t, 7) == pytest.approx(t_pvalue(-t, 7), abs=1e-14)

    def test_normal_limit(self):
        assert t_pvalue(1.96, 1000) == pytest.approx(0.0503, abs=0.002)

    def test_against_scipy(self):
        for dof in (1, 2, 5, 10, 30, 100, 500):
            for t in (0.1, 0.9, 2.0, 4.5, 9.0):
                expected = 2 * stats.t.sf(t, dof)
                assert t_pvalue(t, dof) == pytest.approx(expected, abs=1e-8)

    def test_extreme_statistics_do_not_overflow(self):
        p = t_pvalue(12.0, 29)
        assert 0 < p < 1e-11  # the ~1e-10 regime of strong annual fits
        assert t_pvalue(100.0, 29) > 0.0

    def test_monotone_in_magnitude(self):
        ps = [t_pvalue(t, 15) for t in np.linspace(0.1, 10, 40)]
        assert all(a > b for a, b in zip(ps, ps[1:]))

    @given(st.floats(0.05, 20), st.integers(1, 200))
    def test_valid_probability(self, t, dof):
        p = t_pvalue(t, dof)
        assert 0.0 <= p <= 1.0

    def test_bad_dof(self):
        with pytest.raises(InputError):
            t_pvalue(1.0, 0)


class TestCriticalValues:
    def test_table_brackets(self):
        assert df_critical_values(30)[0.05] == -3.00
        assert df_critical_values(60)[0.05] == -2.93
        assert df_critical_values(150)[0.05] == -2.89
        assert df_critical_values(5000)[0.05] == -2.86

    def test_levels_ordered(self):
        cv = df_critical_values(100)
        assert cv[0.01] < cv[0.05] < cv[0.10]


class TestAdf:
    def test_white_noise_rejects(self):
        rng = np.random.Generator(np.random.PCG64(1))
        s = frac(rng.normal(0, 1, 200))
        res = adf_test(s)
        assert res.rejects_unit_root(0.05)
        assert res.statistic < -5

    def test_random_walk_not_rejected(self):
        rng = np.random.Generator(np.random.PCG64(3))
        s = frac(np.cumsum(rng.normal(0, 1, 200)))
        assert not adf_test(s).rejects_unit_root(0.05)

    def test_constant_series(self):
        with pytest.raises(DomainError):
            adf_test(frac([1.0] * 50))

    def test_scale_invariance(self):
        rng = np.random.Generator(np.random.PCG64(3))
        s = frac(rng.normal(0, 1, 120))
        t1 = adf_test(s).statistic
        t2 = adf_test(s.scale(1000.0)).statistic
        assert t1 == pytest.approx(t2, abs=1e-10)

    def test_lagged_differences(self):
        rng = np.random.Generator(np.random.PCG64(4))
        s = frac(rng.normal(0, 1, 100))
        res = adf_test(s, lag_order=2)
        assert res.lag_order == 2
        assert res.n_obs == 97

    def test_too_short_for_lags(self):
        with pytest.raises(InputError):
            adf_test(frac([0.1, -0.2] * 5), lag_order=5)

    @pytest.mark.parametrize("lag_order", [1.5, "2", True, None])
    def test_lag_order_must_be_an_integer(self, lag_order):
        s = frac(np.random.Generator(np.random.PCG64(4)).normal(0, 1, 100))
        with pytest.raises(InputError, match="lag_order"):
            adf_test(s, lag_order=lag_order)

    def test_integral_float_lag_order_converts(self):
        s = frac(np.random.Generator(np.random.PCG64(4)).normal(0, 1, 100))
        res = adf_test(s, lag_order=2.0)
        assert type(res.lag_order) is int
        assert res == adf_test(s, lag_order=2)

    def test_decision_matches_critical_values(self):
        rng = np.random.Generator(np.random.PCG64(5))
        s = frac(np.cumsum(rng.normal(0, 1, 150)))
        res = adf_test(s)
        for level, cv in res.critical_values.items():
            assert res.rejects[level] == (res.statistic < cv)

    @pytest.mark.parametrize("seed", [11, 12, 13])
    @pytest.mark.parametrize("lag_order", [0, 1, 2, 3, 4])
    def test_statistic_matches_lstsq(self, seed, lag_order):
        vals = np.cumsum(np.random.default_rng(seed).normal(0, 1, 90))
        ds = np.diff(vals)
        y = ds[lag_order:]
        X = np.column_stack([np.ones(len(y)), vals[lag_order:-1]]
                            + [ds[lag_order - j:len(ds) - j] for j in range(1, lag_order + 1)])
        beta, _, _, _ = np.linalg.lstsq(X, y, rcond=None)
        resid = y - X @ beta
        pinv = np.linalg.pinv(X)
        se = np.sqrt(resid @ resid / (len(y) - X.shape[1]) * (pinv @ pinv.T)[1, 1])
        res = adf_test(frac(vals), lag_order=lag_order)
        assert res.n_obs == len(y)
        np.testing.assert_allclose(res.statistic, beta[1] / se, rtol=1e-10)

    @pytest.mark.parametrize("n", [60, 400, 4000])
    @pytest.mark.parametrize("walk", [False, True])
    @pytest.mark.parametrize("lag_order", [0, 1, 2, 3, 4])
    def test_statistic_is_the_row_major_stack_bit_for_bit(self, n, walk, lag_order):
        """adf_test writes its regression column-major; the statistic equals,
        bit for bit, the one from the row-major np.column_stack of the same
        columns through the same kernel."""
        noise = np.random.default_rng(1000 * n + 10 * walk + lag_order).normal(0, 1, n)
        vals = np.cumsum(noise) if walk else noise
        ds = np.diff(vals)
        y = ds[lag_order:]
        cols = [np.ones(len(y)), vals[lag_order:-1]] + [
            ds[lag_order - j:len(ds) - j] for j in range(1, lag_order + 1)]
        (beta,), (rss,), (r_inv,), _ = least_squares_stack(np.column_stack(cols + [y])[None])
        se = math.sqrt(float(rss) / (len(y) - len(cols))) * float(np.linalg.norm(r_inv[1]))
        assert adf_test(frac(vals), lag_order=lag_order).statistic == float(beta[1]) / se

    def test_long_regression_is_factored_where_it_was_built(self, traced_peak):
        """At n=4000 the regression is the working set: no copy of it is made."""
        series = frac(np.cumsum(np.random.default_rng(21).normal(0, 1, 4000)))
        regression = 7 * 3995 * 8  # [1, s_t-1, 4 lagged differences | ds_t], float64
        assert traced_peak(lambda: adf_test(series, lag_order=4)) <= 1.25 * regression

    def test_statistic_matches_statsmodels(self):
        statsmodels = pytest.importorskip("statsmodels.tsa.stattools")
        rng = np.random.Generator(np.random.PCG64(6))
        vals = np.cumsum(rng.normal(0, 1, 80))
        ours = adf_test(frac(vals), lag_order=1).statistic
        theirs = statsmodels.adfuller(vals, maxlag=1, autolag=None, regression="c")[0]
        assert ours == pytest.approx(theirs, abs=1e-8)
