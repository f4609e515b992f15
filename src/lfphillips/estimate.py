"""Lagged linear links between inflation, unemployment, and labor-force growth.

Two estimators share one design-matrix builder:

* ``ols`` minimizes the annual sum of squared errors.
* ``cumulative`` minimizes the sum of squared differences between the
  cumulative observed and predicted curves, subject to the equality
  constraint that the predicted cumulative level matches the observed one at
  the last year of the window. Both cumulative curves start from zero by
  construction, so the constraint pins both endpoints.

A structural break splits the window into two segments estimated in a single
solve; any coefficient (including the intercept) can be declared shared
across segments, which is how the printed piecewise models with a common
intercept or slope arise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from .diagnose import least_squares, r_squared_values, residual_sigma_values, t_pvalue
from .errors import DomainError, EstimationError, InputError
from .series import AnnualSeries, shift

INTERCEPT = "intercept"


@dataclass(frozen=True)
class Predictor:
    name: str
    lag: int = 0


@dataclass(frozen=True)
class LinkSpec:
    """Declarative description of one lagged linear link.

    ``shared`` lists coefficients ("intercept" or a predictor name) that are
    constrained equal across the two break segments; it is only meaningful
    when ``break_year`` is set. ``window`` restricts the response years.
    """

    response: str
    predictors: tuple[Predictor, ...]
    estimator: str = "ols"
    break_year: int | None = None
    shared: tuple[str, ...] = ()
    window: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        if not self.predictors:
            raise InputError("LinkSpec needs at least one predictor")
        if self.estimator not in ("ols", "cumulative"):
            raise InputError(f"unknown estimator {self.estimator!r}")
        names = {INTERCEPT} | {p.name for p in self.predictors}
        for s in self.shared:
            if s not in names:
                raise InputError(f"shared coefficient {s!r} names no predictor")
        if self.window is not None and self.window[0] > self.window[1]:
            raise InputError(f"empty window {self.window}")

    def with_lag(self, name: str, lag: int) -> "LinkSpec":
        preds = tuple(replace(p, lag=lag) if p.name == name else p for p in self.predictors)
        return replace(self, predictors=preds)


@dataclass(frozen=True)
class SegmentCoefficients:
    first_year: int
    last_year: int
    intercept: float
    slopes: dict[str, float] = field(default_factory=dict)

    def evaluate(self, predictor_values: Mapping[str, float]) -> float:
        return self.intercept + sum(b * predictor_values[n] for n, b in self.slopes.items())


@dataclass(frozen=True)
class FitResult:
    spec: LinkSpec
    segments: tuple[SegmentCoefficients, ...]
    stderr: dict[str, float]
    pvalues: dict[str, float]
    r2_annual: float
    r2_cumulative: float
    residuals: AnnualSeries
    sigma: float
    window: tuple[int, int]
    sse_annual: float
    sse_cumulative: float

    @property
    def objective_sse(self) -> float:
        return self.sse_cumulative if self.spec.estimator == "cumulative" else self.sse_annual

    def segment_for(self, year: int) -> SegmentCoefficients:
        for seg in self.segments:
            if seg.first_year <= year <= seg.last_year:
                return seg
        # outside the fit window: extrapolate with the nearest segment
        return self.segments[0] if year < self.segments[0].first_year else self.segments[-1]

    def coefficient_table(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for label, _, _ in _param_labels(self.spec):
            out[label] = self._lookup(label)
        return out

    def _lookup(self, label: str) -> float:
        name, seg_tag = _split_label(label)
        segs = self.segments if seg_tag is None else (
            self.segments[0] if seg_tag == "pre" else self.segments[-1],
        )
        seg = segs[0]
        return seg.intercept if name == INTERCEPT else seg.slopes[name]


def _split_label(label: str) -> tuple[str, str | None]:
    if label.endswith("[pre]"):
        return label[:-5], "pre"
    if label.endswith("[post]"):
        return label[:-6], "post"
    return label, None


def _param_labels(spec: LinkSpec) -> list[tuple[str, str, str | None]]:
    """Ordered (label, coefficient name, segment tag) for the solve."""
    names = [INTERCEPT] + [p.name for p in spec.predictors]
    if spec.break_year is None:
        return [(n, n, None) for n in names]
    out = []
    for n in names:
        if n in spec.shared:
            out.append((n, n, None))
        else:
            out.append((f"{n}[pre]", n, "pre"))
            out.append((f"{n}[post]", n, "post"))
    return out


def _aligned_sample(spec: LinkSpec, data: Mapping[str, AnnualSeries]):
    """Response vector, per-predictor columns, and the common year window."""
    if spec.response not in data:
        raise InputError(f"response series {spec.response!r} missing from data")
    y = data[spec.response]
    shifted = []
    for p in spec.predictors:
        if p.name not in data:
            raise InputError(f"predictor series {p.name!r} missing from data")
        shifted.append(shift(data[p.name], p.lag))
    first = max([y.start_year] + [s.start_year for s in shifted])
    last = min([y.end_year] + [s.end_year for s in shifted])
    if spec.window is not None:
        first = max(first, spec.window[0])
        last = min(last, spec.window[1])
    if first > last:
        raise InputError("empty aligned sample; check lags and window")
    years = np.arange(first, last + 1)
    yv = np.array([y.value(int(t)) for t in years])
    cols = {p.name: np.array([s.value(int(t)) for t in years]) for p, s in zip(spec.predictors, shifted)}
    return yv, cols, years


def _design(spec: LinkSpec, cols: Mapping[str, np.ndarray], years: np.ndarray):
    """Design matrix honoring break segmentation and sharing flags."""
    labels = _param_labels(spec)
    n = len(years)
    if spec.break_year is not None:
        first, last = int(years[0]), int(years[-1])
        if not (first < spec.break_year <= last):
            raise InputError(f"break year {spec.break_year} not inside window {first}..{last}")
        post = years >= spec.break_year
        # segment-size floor applies only when some coefficient actually varies
        if any(tag is not None for _, _, tag in labels):
            if post.sum() < 5 or (~post).sum() < 5:
                raise InputError("each break segment needs at least 5 observations")
    else:
        post = np.zeros(n, dtype=bool)
    X = np.empty((n, len(labels)))
    for j, (_, name, tag) in enumerate(labels):
        base = np.ones(n) if name == INTERCEPT else cols[name]
        if tag == "pre":
            X[:, j] = np.where(post, 0.0, base)
        elif tag == "post":
            X[:, j] = np.where(post, base, 0.0)
        else:
            X[:, j] = base
    return X, labels


def _build_result(spec, data, beta, stderr, dof, labels, X, yv, years) -> FitResult:
    pred = X @ beta
    resid = yv - pred
    c_obs = np.cumsum(yv)
    c_pred = np.cumsum(pred)
    first, last = int(years[0]), int(years[-1])

    names = [label for label, _, _ in labels]
    pvalues = {label: t_pvalue(float(b) / se, dof) if se > 0 else float("nan")
               for label, b, se in zip(names, beta, stderr)}
    coeff = {label: float(b) for label, b in zip(names, beta)}
    segments = _segments_from_coefficients(spec, coeff, first, last)

    var_y = float(np.var(yv))
    r2_annual = r_squared_values(yv, pred) if var_y > 0 else float("nan")
    var_c = float(np.var(c_obs))
    r2_cum = r_squared_values(c_obs, c_pred) if var_c > 0 else float("nan")

    return FitResult(
        spec=spec,
        segments=segments,
        stderr={label: float(se) for label, se in zip(names, stderr)},
        pvalues=pvalues,
        r2_annual=r2_annual,
        r2_cumulative=r2_cum,
        residuals=AnnualSeries(first, tuple(resid), label="residuals",
                               units=data[spec.response].units),
        sigma=residual_sigma_values(resid),
        window=(first, last),
        sse_annual=float(resid @ resid),
        sse_cumulative=float((c_obs - c_pred) @ (c_obs - c_pred)),
    )


def _segments_from_coefficients(spec, coeff, first, last):
    pred_names = [p.name for p in spec.predictors]
    if spec.break_year is None:
        return (
            SegmentCoefficients(first, last, coeff[INTERCEPT],
                                {n: coeff[n] for n in pred_names}),
        )

    def pick(name: str, tag: str) -> float:
        return coeff[name] if name in spec.shared else coeff[f"{name}[{tag}]"]

    pre = SegmentCoefficients(
        first, spec.break_year - 1, pick(INTERCEPT, "pre"),
        {n: pick(n, "pre") for n in pred_names},
    )
    post = SegmentCoefficients(
        spec.break_year, last, pick(INTERCEPT, "post"),
        {n: pick(n, "post") for n in pred_names},
    )
    return (pre, post)


def _fit(spec: LinkSpec, data: Mapping[str, AnnualSeries]) -> FitResult:
    yv, cols, years = _aligned_sample(spec, data)
    for name, col in cols.items():
        if float(np.var(col)) == 0.0:
            raise EstimationError(f"predictor {name!r} has zero variance on the window")
    X, labels = _design(spec, cols, years)
    n, k = X.shape
    if n < k + 2:
        raise InputError(f"sample of {n} too small for {k} coefficients")
    if spec.estimator == "cumulative":
        A, b = np.cumsum(X, axis=0), np.cumsum(yv)
        # Eliminate the endpoint constraint c.z = d (c, d: last cumulated row):
        # z = z0 + N w, with N the trailing columns of the complete QR of c.
        # c never vanishes, because its intercept entries count observations.
        q, r = np.linalg.qr(A[-1:].T, mode="complete")
        z0, nullspace = q[:, 0] * (b[-1] / r[0, 0]), q[:, 1:]
        w, resid, r_inv = least_squares(A @ nullspace, b - A @ z0)
        beta, r_inv = z0 + nullspace @ w, nullspace @ r_inv
    else:
        beta, resid, r_inv = least_squares(X, yv)
    # classical errors: cov = s^2 (N R^-1)(N R^-1)', with N = I for OLS
    dof = n - r_inv.shape[1]
    stderr = np.sqrt(float(resid @ resid) / dof) * np.linalg.norm(r_inv, axis=1)
    return _build_result(spec, data, beta, stderr, dof, labels, X, yv, years)


def ols_fit(spec: LinkSpec, data: Mapping[str, AnnualSeries]) -> FitResult:
    """Annual least squares with classical standard errors and p-values."""
    if spec.estimator != "ols":
        spec = replace(spec, estimator="ols")
    if spec.break_year is not None:
        raise InputError("use fit_piecewise for specs with a break year")
    return _fit(spec, data)


def cumulative_fit(spec: LinkSpec, data: Mapping[str, AnnualSeries]) -> FitResult:
    """Endpoint-constrained least squares on cumulative curves.

    The intercept-direction degree of freedom is absorbed by the constraint
    that the predicted cumulative curve hits the observed final level, so the
    annual residuals sum to zero over the window by construction.
    """
    if spec.estimator != "cumulative":
        spec = replace(spec, estimator="cumulative")
    if spec.break_year is not None:
        raise InputError("use fit_piecewise for specs with a break year")
    return _fit(spec, data)


def fit_piecewise(spec: LinkSpec, data: Mapping[str, AnnualSeries]) -> FitResult:
    """Two-segment fit in a single solve honoring the sharing flags.

    With the cumulative estimator the predicted cumulative curve is
    continuous across the break because cumulation runs over the whole
    window.
    """
    if spec.break_year is None:
        raise InputError("fit_piecewise needs a break year")
    return _fit(spec, data)


def fit(spec: LinkSpec, data: Mapping[str, AnnualSeries]) -> FitResult:
    """Dispatch on break presence; estimator comes from the spec."""
    if spec.break_year is not None:
        return fit_piecewise(spec, data)
    return cumulative_fit(spec, data) if spec.estimator == "cumulative" else ols_fit(spec, data)


def scan_lag(
    spec: LinkSpec,
    data: Mapping[str, AnnualSeries],
    lag_range: Sequence[int] = range(-5, 6),
    predictor: str | None = None,
    criterion: str | None = None,
) -> tuple[list[tuple[int, FitResult]], int]:
    """Exhaustive fit over integer lags of one predictor.

    Best lag maximizes the selection criterion (annual R^2 for OLS fits,
    cumulative R^2 for cumulative fits, unless overridden). A NaN criterion
    never beats a real one; exact ties, all-NaN included, go to the smallest
    |lag|, then the negative one.
    """
    name = predictor or spec.predictors[0].name
    if criterion is None:
        criterion = "r2_cumulative" if spec.estimator == "cumulative" else "r2_annual"
    results: list[tuple[int, FitResult]] = []
    for lag in lag_range:
        try:
            results.append((lag, fit(spec.with_lag(name, lag), data)))
        except (InputError, EstimationError):
            continue
    if not results:
        raise InputError("no lag in the range yields a legal sample")
    best = max(results, key=lambda item: (_rank_value(getattr(item[1], criterion)),
                                          -abs(item[0]), -item[0]))
    return results, best[0]


def _rank_value(criterion: float) -> float:
    """NaN criteria (zero-variance response) rank below every real value."""
    return -math.inf if math.isnan(criterion) else criterion


def scan_break(
    spec: LinkSpec,
    data: Mapping[str, AnnualSeries],
    candidate_years: Sequence[int],
) -> tuple[list[tuple[int, float]], int]:
    """Exhaustive piecewise fit over candidate break years.

    Best year minimizes the estimator's total SSE; ties go to the earliest
    year. Results are in candidate order regardless of evaluation order.
    """
    profile: list[tuple[int, float]] = []
    for year in candidate_years:
        try:
            result = fit_piecewise(replace(spec, break_year=year), data)
        except (InputError, EstimationError):
            continue
        profile.append((year, result.objective_sse))
    if not profile:
        raise InputError("no candidate break year yields a legal piecewise fit")
    best = min(profile, key=lambda item: (item[1], item[0]))
    return profile, best[0]


def predict(
    fitres: FitResult,
    data: Mapping[str, AnnualSeries],
    years: Sequence[int],
) -> AnnualSeries:
    """Evaluate a fitted model year by year, segment-aware around the break."""
    years = list(years)
    if not years:
        raise InputError("no years requested")
    if years != list(range(years[0], years[-1] + 1)):
        raise InputError("prediction years must be consecutive")
    spec = fitres.spec
    values = []
    for t in years:
        row: dict[str, float] = {}
        for p in spec.predictors:
            if p.name not in data:
                raise InputError(f"predictor series {p.name!r} missing from data")
            s = data[p.name]
            want = t - p.lag
            if not (s.start_year <= want <= s.end_year):
                raise InputError(f"predictor {p.name!r} missing year {want} (lag {p.lag})")
            row[p.name] = s.value(want)
        values.append(fitres.segment_for(t).evaluate(row))
    return AnnualSeries(years[0], tuple(values), label=f"predicted {spec.response}",
                        units=fitres.residuals.units)


def original_phillips(u_percent: float) -> float:
    """The 1958 wage-growth curve, in percent units: -0.90 + 9.64 * u^(-1.39)."""
    if u_percent <= 0:
        raise DomainError(f"unemployment must be positive, got {u_percent}")
    return -0.90 + 9.64 * u_percent ** (-1.39)
