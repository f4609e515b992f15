"""Fit-quality and residual diagnostics.

Student-t tail probabilities are computed through a continued-fraction
regularized incomplete beta so that the extreme p-values (~1e-10) that show
up on strong fits come out without overflow. The unit-root test is an
augmented Dickey-Fuller regression with a constant and no trend, judged
against the published constant-only critical-value table.

Every regression in the package is factored by ``factor_stack``: an R-only
QR factorization of the augmented stack ``[X | y]``. Its R factors hold the
residual sum of squares (the square of R's corner entry) and the rank test
without forming Q; ``least_squares_stack`` reads the coefficients and the
coefficient covariance off the same R. A single regression is the stack of
one, and LAPACK's dgeqrf factors it in place; a scan pass of several slices
goes through numpy's batched R-only QR. ``least_squares_stack``'s callers are
``estimate._solve`` (fits, lag scans and the chart overlay, which is a fit)
and ``adf_test``; a break scan, which ranks years by SSE alone, stops at
``factor_stack``. All of them hand over stacks whose slices are column-major,
the layout LAPACK's QR reads without a transposing copy, and give up a stack
of one that nothing reads again; ``adf_test`` writes its regression one row
per column, passes the transpose, and lets the factorization overwrite it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import lapack_lite

from .errors import DomainError, EstimationError, InputError
from .ingest import json_int
from .series import AnnualSeries

_BETACF_TOL = 1e-10
_BETACF_MAX_ITER = 500
_FPMIN = 1e-300


def r_squared_stack(observed: np.ndarray, predicted: np.ndarray,
                    n: np.ndarray | None = None) -> np.ndarray:
    """1 - SSE/SST over the last axis, per slice of a stack; NaN where the
    observed slice is exactly constant (round-off leaves a constant like 0.01
    a tiny nonzero SST).

    ``n`` (m,) counts the rows of each slice's sample, which fills the first
    n entries of an (m, F) frame; both curves must be zero past it. The
    mean, SST and spread read only those rows. None: every slice fills its
    frame, and nothing is masked."""
    rows = observed.shape[-1] if n is None else n[:, None]
    dev = observed - observed.sum(axis=-1, keepdims=True) / rows
    varies = observed != observed[..., :1]
    if n is not None:
        in_sample = sample_rows(n, observed.shape[-1])
        dev, varies = dev * in_sample, varies & in_sample
    sst = np.sum(dev ** 2, axis=-1)
    sse = np.sum((observed - predicted) ** 2, axis=-1)
    return 1.0 - sse / np.where(varies.any(axis=-1), sst, np.nan)


def residual_sigma_values(residuals: np.ndarray) -> float:
    residuals = np.asarray(residuals, dtype=float)
    return float(np.sqrt(np.mean((residuals - residuals.mean()) ** 2)))


def factor_stack(Xy: np.ndarray, n: np.ndarray | None = None
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """R-only QR of every slice of an (m, F, k+1) stack ``[X | y]``: all that
    least squares on the slice reads, without forming Q or solving.

    The leading k x k block of each R is R of X, the column beside it is Q'y
    and the entry below that is +-||y - X beta||. Returns ``(R, rss,
    full_rank)``: R of shape (m, min(F, k+1), k+1), and rss, the square of R's
    corner entry (0 when F == k), and the rank test, each of shape (m,).

    ``n`` (m,) counts the rows of each slice's sample, the first n of the F
    rows; the rows past it must be zero, which leaves R as it is. None: every
    slice has F rows. A slice is rank deficient when min|diag R| <= max(n, k)
    * eps * max|diag R|, numpy's default rank tolerance at the slice's own n;
    so is every slice with n < k, whose R has a zero diagonal entry. A rank
    deficient slice's rss is meaningless. Raises EstimationError when F < k.

    A stack of one, which is every fit and ADF regression and so every solve
    whose F is unbounded, is factored by dgeqrf in place: when its slice is
    a column-major, writeable float64 buffer, ``Xy`` is overwritten, and any
    other slice is copied once.
    A scan pass of several slices goes through the batched
    ``np.linalg.qr(mode="r")`` and leaves ``Xy`` as it is.
    """
    Xy = np.asarray(Xy, dtype=float)
    frame, k = Xy.shape[-2], Xy.shape[-1] - 1
    if frame < k:
        raise EstimationError("degenerate design: zero-variance or collinear predictors")
    r = _qr_r_in_place(Xy[0])[None] if len(Xy) == 1 else np.linalg.qr(Xy, mode="r")
    diag = np.abs(np.diagonal(r[:, :k, :k], axis1=-2, axis2=-1))
    rows = max(frame, k) if n is None else np.maximum(n, k)
    full_rank = diag.min(axis=-1) > rows * np.finfo(float).eps * diag.max(axis=-1)
    # zero rows leave R's corner at 0 in a slice with n == k
    rss = r[:, k, k] ** 2 if frame > k else np.zeros(len(r))
    return r, rss, full_rank


def least_squares_stack(Xy: np.ndarray, n: np.ndarray | None = None
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Minimize ||X_i beta_i - y_i|| for every slice of an (m, F, k+1) stack
    ``[X | y]``, read off ``factor_stack``'s R: beta = R_x^-1 Q'y.

    Returns ``(beta, rss, R^-1, full_rank)`` of shapes (m, k), (m,), (m, k, k)
    and (m,); rss and full_rank are ``factor_stack``'s, and so are ``n``, the
    rank test and what happens to ``Xy``. ``R^-1 R^-T = (X'X)^-1``, so the
    classical covariance is s^2 R^-1 R^-T. A rank deficient slice's outputs
    are meaningless.
    """
    r, rss, full_rank = factor_stack(Xy, n)
    k = r.shape[-1] - 1
    # rank-deficient slices invert I instead, so one singular R cannot fail the stack
    r_inv = np.linalg.inv(np.where(full_rank[:, None, None], r[:, :k, :k], np.eye(k)))
    return matvec(r_inv, r[:, :k, k]), rss, r_inv, full_rank


def _qr_r_in_place(Xy: np.ndarray) -> np.ndarray:
    """``np.linalg.qr(Xy, mode="r")`` of one (F, k+1) matrix by LAPACK's dgeqrf,
    which factors a column-major ``Xy`` in its own buffer and any other in one
    copy. np.linalg.qr copies twice, and at a long series' F each copy maps
    fresh pages. The workspace size is dgeqrf's own answer to a query, as in
    numpy's gufunc, so the same blocked factorization runs on the same data."""
    # the transpose's C order is the Fortran (F, k+1) matrix dgeqrf reads
    a = np.require(Xy.T, float, ["C", "A", "W"])
    tau, query = np.empty(min(a.shape)), np.empty(1)
    _dgeqrf(a, tau, query, -1)
    work = np.empty(max(1, len(a), int(query[0])))
    _dgeqrf(a, tau, work, len(work))
    return np.triu(a.T[:len(tau)])


def _dgeqrf(a: np.ndarray, tau: np.ndarray, work: np.ndarray, lwork: int) -> None:
    """dgeqrf on the C-order (n, m) buffer ``a``, the Fortran (m, n) matrix;
    ``lwork`` -1 writes the workspace size it asks for to ``work[0]``."""
    cols, rows = a.shape
    info = lapack_lite.dgeqrf(rows, cols, a, max(1, rows), tau, work, lwork, 0)["info"]
    if info != 0:
        raise np.linalg.LinAlgError(f"dgeqrf returns {info}")


def sample_rows(n: np.ndarray, frame: int) -> np.ndarray:
    """(m, F) mask of the rows each slice's sample fills: the first n of F."""
    return np.arange(frame) < n[:, None]


def matvec(A: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Products A_i v_i over stacks: (..., a, b) with (..., b) gives (..., a)."""
    return (A @ v[..., None])[..., 0]


def t_pvalue(t: float, dof: int) -> float:
    """Two-sided Student-t tail probability.

    Uses P(|T| > t) = I_{v/(v+t^2)}(v/2, 1/2), evaluated by the
    continued-fraction incomplete beta.
    """
    if dof < 1:
        raise InputError(f"dof must be >= 1, got {dof}")
    if t == 0.0:
        return 1.0
    x = dof / (dof + t * t)
    return _betainc(dof / 2.0, 0.5, x)


def _betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b) via Lentz's continued fraction."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def _betacf(a: float, b: float, x: float) -> float:
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _BETACF_MAX_ITER + 1):
        m2 = 2 * m
        even = m * (b - m) * x / ((qam + m2) * (a + m2))
        odd = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        for aa in (even, odd):
            d = 1.0 + aa * d
            if abs(d) < _FPMIN:
                d = _FPMIN
            c = 1.0 + aa / c
            if abs(c) < _FPMIN:
                c = _FPMIN
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < _BETACF_TOL:
            return h
    raise DomainError(f"incomplete beta failed to converge for a={a}, b={b}, x={x}")


# Dickey-Fuller critical values, constant-only regression (tau_mu),
# transcribed from Fuller (1976), Table 8.5.2, and cross-checked against the
# MacKinnon (2010) response-surface values for the same specification.
_DF_CRITICAL = {
    25: {0.01: -3.75, 0.05: -3.00, 0.10: -2.63},
    50: {0.01: -3.58, 0.05: -2.93, 0.10: -2.60},
    100: {0.01: -3.51, 0.05: -2.89, 0.10: -2.58},
    math.inf: {0.01: -3.43, 0.05: -2.86, 0.10: -2.57},
}


def df_critical_values(n: int) -> dict[float, float]:
    """Constant-only DF critical values for the bracket containing n.

    The bracket picks the largest tabulated size not exceeding the sample
    (the stricter row), with the asymptotic row used from n = 250 on.
    """
    if n < 50:
        return dict(_DF_CRITICAL[25])
    if n < 100:
        return dict(_DF_CRITICAL[50])
    if n < 250:
        return dict(_DF_CRITICAL[100])
    return dict(_DF_CRITICAL[math.inf])


@dataclass(frozen=True)
class AdfResult:
    statistic: float
    lag_order: int
    n_obs: int
    critical_values: dict[float, float]
    rejects: dict[float, bool]

    def rejects_unit_root(self, level: float = 0.05) -> bool:
        if level not in self.rejects:
            raise InputError(f"level {level} not tabulated; use one of {sorted(self.rejects)}")
        return self.rejects[level]


def adf_test(series: AnnualSeries, lag_order: int = 0) -> AdfResult:
    """Augmented Dickey-Fuller test, constant and no trend.

    Regresses the first difference on the lagged level, an intercept, and
    ``lag_order`` lagged differences; the statistic is the t-ratio on the
    lagged level.
    """
    lag_order = json_int("lag_order", lag_order)
    if lag_order < 0:
        raise InputError("lag_order must be >= 0")
    s = series.array
    if len(s) < lag_order + 10:
        raise InputError(f"series of {len(s)} too short for lag order {lag_order}")
    if np.ptp(s) == 0.0:
        raise DomainError("constant series has no unit-root regression")
    ds = np.diff(s)
    # rows are t = lag_order+1 .. len(ds)-1 in difference indexing; the
    # regression [1, s_t-1, ds_t-1 .. ds_t-p | ds_t] is written one row per
    # column, so its transpose is the column-major stack LAPACK's QR reads;
    # the kernel factors it in place
    n = len(ds) - lag_order
    k = lag_order + 2
    dof = n - k
    if dof <= 0:
        raise InputError("not enough observations for the ADF regression")
    Xy = np.empty((k + 1, n))
    Xy[0], Xy[1], Xy[-1] = 1.0, s[lag_order:-1], ds[lag_order:]
    for j in range(1, lag_order + 1):
        Xy[1 + j] = ds[lag_order - j : len(ds) - j]
    (beta,), (rss,), (r_inv,), (ok,) = least_squares_stack(Xy.T[None])
    se = math.sqrt(float(rss) / dof) * float(np.linalg.norm(r_inv[1]))
    if not ok or se == 0.0:
        raise DomainError("degenerate ADF regression")
    stat = float(beta[1]) / se
    critical = df_critical_values(n)
    rejects = {level: stat < cv for level, cv in critical.items()}
    return AdfResult(statistic=stat, lag_order=lag_order, n_obs=n,
                     critical_values=critical, rejects=rejects)
