"""Lagged linear links between inflation, unemployment, and labor-force growth.

Two estimators share one design builder and one stacked solve:

* ``ols`` minimizes the annual sum of squared errors.
* ``cumulative`` minimizes the sum of squared differences between the
  cumulative observed and predicted curves, subject to the equality
  constraint that the predicted cumulative level matches the observed one at
  the last year of the window. Both cumulative curves start from zero by
  construction, so the constraint pins both endpoints.

A structural break splits the window into two segments estimated in a single
solve; any coefficient (including the intercept) can be declared shared
across segments, which is how the printed piecewise models with a common
intercept or slope arise. With the cumulative estimator the predicted
cumulative curve is continuous across the break, because cumulation runs over
the whole window.

``fit`` is the one fit: the estimator and the break year come from the spec.
``ols_fit``, ``cumulative_fit`` and ``fit_piecewise`` are one-line adapters
onto it that only the benchmark calls, by name; no package code calls them.

A candidate is (predictor shifts, break year) on the spec's frame: a fit is
one candidate, a lag scan varies one predictor's shift and a break scan the
break year. One builder, ``_candidates``, checks every candidate as ``fit``
does, aligning each distinct shift tuple once. One scorer, ``_score``, builds
the legal ones as slices of stacked passes ``[X | y]``, and each caller
hands it the step that finishes a pass as far as what it ranks needs. A fit
(everything off its stack of one) and a lag scan (each lag's SSEs and R^2,
``LagScore``) finish through ``_stack_curves``: ``_solve`` reduces the stack
(``_reduce``), solves it with ``least_squares_stack`` and lifts the solution
back to the coefficients; the predictions and both curves follow. A break
scan ranks years by the objective SSE alone, so its ``_factor`` reduces
each pass and stops at the kernel's factor step, ``factor_stack``: no
R^-1, coefficients, predictions or curves per candidate.

For every solve the estimator's own SSE (``objective_sse``: the annual SSE
for OLS, the cumulative one for the cumulative estimator) is the kernel's
rss, the square of R's corner entry, so a scan's SSE and the fit of that
candidate are the same number to the bit. The other SSE and both R^2 are
computed from the annual and cumulative curves.

The frame is the response's years inside the window, F rows whatever the
lags or the break year. A sample of n <= F years fills its first n rows; the
rows past it are zero in the design, the response and both cumulative
curves, and the solve and the scores read each slice's n, so a scan's slice
and the fit of that candidate are the same array.

Design stacks are column-major in every slice: ``_design`` fills an
(m, k+1, F) buffer one row per column and hands out its transposed view, and
the cumulative estimator forms its reduced stack as (M' C')', so LAPACK's QR
reads each slice without a transposing copy. A fit is a stack of one, which
the kernel factors in place by dgeqrf: the cumulative estimator hands over
the reduced stack it built, and the OLS design is copied once, because a
fit's predictions read it again. A scan pass of several slices goes through
the batched QR, which copies the stack itself.

Only ``_param_labels`` spells the coefficient labels, and only
``LinkSpec.to_dict``/``from_dict`` know the spec JSON's fields; the checks of
its syntax and of each field's type are ``ingest``'s, shared with every other
file the package reads.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields, replace
from typing import Mapping, Sequence

import numpy as np

from .diagnose import (
    factor_stack,
    least_squares_stack,
    matvec,
    r_squared_stack,
    residual_sigma_values,
    sample_rows,
    t_pvalue,
)
from .errors import EstimationError, InputError
from .ingest import json_int, json_object, json_span, json_str
from .series import AnnualSeries, align

INTERCEPT = "intercept"
# design entries per stacked solve in a scan: bounds its working memory
_STACK_ENTRIES = 1 << 15


@dataclass(frozen=True)
class Predictor:
    name: str
    lag: int = 0

    def __post_init__(self) -> None:
        json_str("predictor name", self.name)
        object.__setattr__(self, "lag", json_int("lag", self.lag))


@dataclass(frozen=True)
class LinkSpec:
    """Declarative description of one lagged linear link.

    ``shared`` lists coefficients ("intercept" or a predictor name) that are
    constrained equal across the two break segments. A fit or lag scan
    refuses it without ``break_year``; ``scan_break`` supplies the break
    years itself and refuses one. ``window`` restricts the response years.
    """

    response: str
    predictors: tuple[Predictor, ...]
    estimator: str = "ols"
    break_year: int | None = None
    shared: tuple[str, ...] = ()
    window: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        json_str("response", self.response)
        if not self.predictors:
            raise InputError("LinkSpec needs at least one predictor")
        if self.estimator not in ("ols", "cumulative"):
            raise InputError(f"unknown estimator {self.estimator!r}")
        pred_names = [p.name for p in self.predictors]
        if INTERCEPT in pred_names:
            # _design gives every coefficient named "intercept" a column of ones
            raise InputError(f"predictor {INTERCEPT!r} is the name of the constant term; "
                             "rename the series")
        for name in pred_names:
            # design columns and coefficient labels are keyed by series name
            if pred_names.count(name) > 1:
                raise InputError(f"predictor {name!r} is named more than once; "
                                 "one series at two lags is not supported")
        names = {INTERCEPT, *pred_names}
        for s in self.shared:
            json_str("shared coefficient", s)
            if s not in names:
                raise InputError(f"shared coefficient {s!r} names no predictor")
            if self.shared.count(s) > 1:
                raise InputError(f"shared coefficient {s!r} is named more than once")
        if self.break_year is not None:
            object.__setattr__(self, "break_year", json_int("break_year", self.break_year))
        if self.window is not None:
            object.__setattr__(self, "window", json_span("window", self.window))

    # benchmark-only: perfbench/workloads.py shifts its scan specs with it
    def with_lag(self, name: str, lag: int) -> "LinkSpec":
        preds = tuple(replace(p, lag=lag) if p.name == name else p for p in self.predictors)
        return replace(self, predictors=preds)

    def to_dict(self) -> dict:
        """The spec's JSON form, every field spelled out; ``from_dict`` reads it back."""
        return {
            "response": self.response,
            "predictors": [{"name": p.name, "lag": p.lag} for p in self.predictors],
            "estimator": self.estimator,
            "break_year": self.break_year,
            "shared": list(self.shared),
            "window": list(self.window) if self.window else None,
        }

    @classmethod
    def from_dict(cls, doc) -> "LinkSpec":
        """A spec from its JSON form. ``response`` and ``predictors`` are
        required; an unknown key or a malformed field raises InputError naming it."""
        doc = _json_fields("spec", cls, doc)
        if not isinstance(doc["predictors"], list):
            raise InputError(f'"predictors" must be a list, got {doc["predictors"]!r}')
        shared = doc.get("shared", [])
        if not isinstance(shared, list):
            raise InputError(f'"shared" must be a list of coefficient names, got {shared!r}')
        predictors = tuple(Predictor(**_json_fields("predictor", Predictor, p))
                           for p in doc["predictors"])
        return cls(**{**doc, "predictors": predictors, "shared": tuple(shared)})


def _json_fields(what: str, cls, doc) -> dict:
    """``doc`` as keyword arguments of ``cls``: a JSON object that holds every
    field of ``cls`` without a default, and no key that is not a field."""
    return json_object(what, doc, [f.name for f in fields(cls)],
                       [f.name for f in fields(cls) if f.default is MISSING])


@dataclass(frozen=True)
class SegmentCoefficients:
    first_year: int
    last_year: int
    intercept: float
    slopes: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class FitResult:
    """One fit. Of its two SSEs, the estimator's own (``objective_sse``:
    ``sse_annual`` for OLS, ``sse_cumulative`` for the cumulative estimator)
    is the kernel's rss, read off R; the other SSE and both R^2 are computed
    from the annual and cumulative curves. ``sigma`` comes from the
    residuals, and the standard errors from rss and R^-1."""

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

    def coefficient_table(self) -> dict[str, float]:
        """Every coefficient by label, in the solve's order."""
        out: dict[str, float] = {}
        for label, name, tag in _param_labels(self.spec, self.spec.break_year is not None):
            seg = self.segments[-1 if tag == "post" else 0]
            out[label] = seg.intercept if name == INTERCEPT else seg.slopes[name]
        return out


@dataclass(frozen=True)
class LagScore:
    """What a lag scan ranks one lag by; each number equals the matching
    attribute of ``fit`` at that lag, and comes from where it does there:
    the objective SSE is the kernel's rss, and the other SSE and both R^2
    are computed from the curves."""

    estimator: str
    sse_annual: float
    sse_cumulative: float
    r2_annual: float
    r2_cumulative: float

    @property
    def objective_sse(self) -> float:
        return self.sse_cumulative if self.estimator == "cumulative" else self.sse_annual


def _param_labels(spec: LinkSpec, piecewise: bool) -> list[tuple[str, str, str | None]]:
    """Ordered (label, coefficient name, segment tag) for the solve."""
    names = [INTERCEPT] + [p.name for p in spec.predictors]
    if not piecewise:
        return [(n, n, None) for n in names]
    out = []
    for n in names:
        if n in spec.shared:
            out.append((n, n, None))
        else:
            out.append((f"{n}[pre]", n, "pre"))
            out.append((f"{n}[post]", n, "post"))
    return out


def _check_series(spec: LinkSpec, data: Mapping[str, AnnualSeries]) -> None:
    """Refuse a spec whose response or a predictor is missing from ``data``."""
    named = [("response", spec.response)] + [("predictor", p.name) for p in spec.predictors]
    for role, name in named:
        if name not in data:
            raise InputError(f"{role} series {name!r} missing from data")


def _aligned_sample(spec: LinkSpec, data: Mapping[str, AnnualSeries],
                    lags: Sequence[int] | None = None):
    """Response vector, per-predictor columns, and the common year window.
    ``lags``, one per predictor, replace the spec's own."""
    _check_series(spec, data)
    pairs = [(data[spec.response], 0)]
    pairs += ((data[p.name], lag)
              for p, lag in zip(spec.predictors, lags or [p.lag for p in spec.predictors]))
    (yv, *xs), years = align(pairs, spec.window)
    return yv, {p.name: x for p, x in zip(spec.predictors, xs)}, years


def _frame_rows(spec: LinkSpec, data: Mapping[str, AnnualSeries]) -> int:
    """F, the rows of the spec's frame: the response's years inside the
    window. Every sample of the spec, at any lag or break year, is a run of
    at most F of those years."""
    y = data[spec.response]
    first, last = y.start_year, y.end_year
    if spec.window is not None:
        first, last = max(first, spec.window[0]), min(last, spec.window[1])
    return last - first + 1


def _check_shared(spec: LinkSpec) -> None:
    """Refuse ``shared`` without a break year in a fit or lag scan, which would ignore it."""
    if spec.shared and spec.break_year is None:
        raise InputError(f'"shared" {list(spec.shared)} needs a "break_year"; '
                         "without a break there is nothing to share")


def _candidates(spec: LinkSpec, data: Mapping[str, AnnualSeries], labels,
                shifts: Sequence[tuple[int, ...]], break_years: Sequence[int | None],
                drop_sample_errors: bool = False):
    """The builder: every distinct candidate (predictor shifts, break year;
    None is no break) of the grid ``shifts`` x ``break_years``, checked as
    ``fit`` checks it for a solve of ``labels``. Each shift tuple is aligned
    and checked once, and its candidates share its sample: the response, each
    predictor's column and the years over the frame's F rows, and the length
    n of the sample, which fills the first n rows (zero values past them).

    Returns ``(legal, dropped)``: the legal (candidate, sample) pairs in grid
    order, and the exception ``fit`` raises for every other candidate. A
    shift tuple's sample error is raised unless ``drop_sample_errors``.
    Rank deficiency is the solve's to find."""
    legal, dropped, break_years = [], {}, list(dict.fromkeys(break_years))
    floor = 5 if any(tag is not None for _, _, tag in labels) else 0
    for lags in dict.fromkeys(shifts):
        try:
            yv, cols, years = _aligned_sample(spec, data, lags)
            for name, col in cols.items():
                if np.ptp(col) == 0.0:
                    raise EstimationError(f"predictor {name!r} has zero variance on the window")
            n, rows = len(years), _frame_rows(spec, data)
            if n < len(labels) + 2:
                raise InputError(f"sample of {n} too small for {len(labels)} coefficients")
        except (InputError, EstimationError) as exc:
            if not drop_sample_errors:
                raise
            exc = exc.with_traceback(None)  # no reference cycle through this frame
            dropped.update(((lags, year), exc) for year in break_years)
            continue
        first, last = int(years[0]), int(years[-1])
        if n < rows:
            yv, *xs = (np.concatenate([v, np.zeros(rows - n)]) for v in (yv, *cols.values()))
            cols, years = dict(zip(cols, xs)), np.arange(first, first + rows)
        sample = yv, cols, years, n
        for year in break_years:
            if year is not None and not first < year <= last:
                dropped[lags, year] = InputError(
                    f"break year {year} not inside window {first}..{last}")
            # the segment floor applies only when some coefficient varies
            elif year is not None and min(year - first, last - year + 1) < floor:
                dropped[lags, year] = InputError("each break segment needs at least 5 observations")
            else:
                legal.append(((lags, year), sample))
    return legal, dropped


def _design(labels, cols: Mapping[str, np.ndarray], years: np.ndarray,
            break_years: Sequence[int | None], yv: np.ndarray | None = None,
            n: np.ndarray | None = None) -> np.ndarray:
    """(m, F, k) design stack, one slice per break year (None: no break), or
    the (m, F, k+1) stack ``[X | y]`` of the solve when given a response ``yv``.
    ``years``, ``yv`` and each column are (F,) or (1, F) when every slice
    shares them, or (m, F) with one row per slice. ``n`` counts each slice's
    sample rows as ``_score`` gives them: the columns and ``yv`` are zero
    past them, and so is the intercept.

    The stack is the transposed view of an (m, k or k+1, F) buffer filled
    one row per column, so every slice is column-major: the layout LAPACK's QR reads
    without a transposing copy, and in which a column is contiguous."""
    # no break: every year is pre-break, which an untagged design never reads
    cuts = np.array([math.inf if b is None else b for b in break_years])
    post = years >= cuts[:, None]
    rows = np.empty((len(post), len(labels) + (yv is not None), post.shape[-1]))
    if yv is not None:
        rows[:, -1] = yv
    ones = 1.0 if n is None else sample_rows(n, post.shape[-1]).astype(float)
    for j, (_, name, tag) in enumerate(labels):
        base = ones if name == INTERCEPT else cols[name]
        if tag == "pre":
            rows[:, j] = np.where(post, 0.0, base)
        elif tag == "post":
            rows[:, j] = np.where(post, base, 0.0)
        else:
            rows[:, j] = base
    return np.swapaxes(rows, -1, -2)


def _reduce(estimator: str, Xy: np.ndarray, n: np.ndarray | None = None):
    """The stack the kernel factors for the estimator's least squares on every
    slice of an (m, F, k+1) stack ``[X | y]`` whose slices hold samples of
    ``n`` rows (None: F rows each), and what ``_solve`` needs to lift its
    solution back: ``(stack, lift)``.

    For OLS the stack is ``[X | y]`` itself and ``lift`` is None. For the
    cumulative estimator it is the cumulated stack with its endpoint
    constraint eliminated, z = z0 + N w, and ``lift`` is ``(z0, N)``; N spans
    the free directions. Either way the kernel's rss of the stack is the
    estimator's own SSE: the annual one for OLS, the cumulative one for the
    cumulative estimator.
    """
    if estimator != "cumulative":
        # the kernel factors a stack of one in its buffer; _stack_curves reads the design again
        return (Xy.copy(order="K") if len(Xy) == 1 else Xy), None
    # cumulate the rows of the transposed stack: with _design's column-major
    # slices they are contiguous, and so is the reduced stack built from them
    Ct, k = np.cumsum(np.swapaxes(Xy, -1, -2), axis=-1), Xy.shape[-1] - 1
    # Eliminate the endpoint constraint c.z = d ([c | d]: last cumulated row):
    # z = z0 + N w, with N the trailing columns of the complete QR of c.
    # c never vanishes, because its intercept entries count observations.
    # The design is zero past a sample's n rows, so its last cumulated row
    # is the one of row n-1 however short the sample is.
    # [A | b] [[N, -z0], [0, 1]] = [A N | b - A z0] is the reduced stack,
    # formed as (M' C')' so that its slices stay column-major.
    q, r = np.linalg.qr(Ct[:, :k, -1:], mode="complete")
    z0, nullspace = q[:, :, 0] * (Ct[:, k:, -1] / r[:, :1, 0]), q[:, :, 1:]
    if n is not None:
        # the reduced stack is zero past each sample, as the design is
        Ct *= sample_rows(n, Ct.shape[-1])[:, None]
    M = np.zeros((len(Ct), k + 1, k))
    M[:, :k, :-1], M[:, :k, -1], M[:, k, -1] = nullspace, -z0, 1.0
    reduced = np.swapaxes(np.swapaxes(M, -1, -2) @ Ct, -1, -2)  # the kernel's to overwrite
    return reduced, (z0, nullspace)


def _solve(estimator: str, Xy: np.ndarray, n: np.ndarray | None = None):
    """The estimator's least squares on every slice of an (m, F, k+1) stack
    ``[X | y]`` whose slices hold samples of ``n`` rows (None: F rows each).

    Returns ``(beta, rss, N R^-1, full_rank)`` as ``least_squares_stack``
    does for the ``_reduce``d stack, with beta = z0 + N w lifted back from
    its solution w (N = I for OLS), so the classical covariance is
    s^2 (N R^-1)(N R^-1)'.
    """
    reduced, lift = _reduce(estimator, Xy, n)
    w, rss, r_inv, full_rank = least_squares_stack(reduced, n)
    if lift is None:
        return w, rss, r_inv, full_rank
    z0, nullspace = lift
    return z0 + matvec(nullspace, w), rss, nullspace @ r_inv, full_rank


def _sse(observed: np.ndarray, predicted: np.ndarray) -> np.ndarray:
    """Sum of squared differences over the last axis, per slice of a stack."""
    e = observed - predicted
    return (e[..., None, :] @ e[..., :, None])[..., 0, 0]


def _segments_from_coefficients(spec, labels, beta, first, last):
    """One SegmentCoefficients per segment; an untagged coefficient is in each."""
    if spec.break_year is None:
        spans = {None: (first, last)}
    else:
        spans = {"pre": (first, spec.break_year - 1), "post": (spec.break_year, last)}
    segments = []
    for tag, (lo, hi) in spans.items():
        coeff = {name: float(b) for (_, name, t), b in zip(labels, beta) if t in (None, tag)}
        segments.append(SegmentCoefficients(lo, hi, coeff.pop(INTERCEPT), coeff))
    return tuple(segments)


def fit(spec: LinkSpec, data: Mapping[str, AnnualSeries]) -> FitResult:
    """The fit of ``spec`` by its estimator, both segments in one solve when it
    has a break year: the candidate of its own lags and break year, a stack of one."""
    _check_shared(spec)
    labels = _param_labels(spec, spec.break_year is not None)
    legal, dropped = _candidates(spec, data, labels, [tuple(p.lag for p in spec.predictors)],
                                 [spec.break_year])
    if dropped:
        raise dropped.popitem()[1]
    ((_, (yv, _, years, length)),) = legal
    ((_, (solution, annual, cumulative), n),) = _score(spec, labels, legal, _stack_curves)
    (beta,), (rss,), (r_inv,), (full_rank,) = solution
    if not full_rank:
        raise EstimationError("degenerate design: zero-variance or collinear predictors")
    # classical errors: cov = s^2 (N R^-1)(N R^-1)', with N = I for OLS
    dof = length - r_inv.shape[1]
    stderr = np.sqrt(float(rss) / dof) * np.linalg.norm(r_inv, axis=1)
    names = [label for label, _, _ in labels]
    resid = (yv - annual[1][0])[:length]
    first, last = int(years[0]), int(years[length - 1])
    sse_annual, sse_cumulative, r2_annual, r2_cumulative = (
        float(v[0]) for v in _scores(spec.estimator, solution[1], annual, cumulative, n))
    return FitResult(
        spec=spec,
        segments=_segments_from_coefficients(spec, labels, beta, first, last),
        stderr={label: float(se) for label, se in zip(names, stderr)},
        pvalues={label: t_pvalue(float(b) / se, dof) if se > 0 else float("nan")
                 for label, b, se in zip(names, beta, stderr)},
        r2_annual=r2_annual,
        r2_cumulative=r2_cumulative,
        residuals=AnnualSeries(first, resid, label="residuals",
                               units=data[spec.response].units),
        sigma=residual_sigma_values(resid),
        window=(first, last),
        sse_annual=sse_annual,
        sse_cumulative=sse_cumulative,
    )


# benchmark-only adapters: perfbench traces these names; the package calls fit
def ols_fit(spec: LinkSpec, data: Mapping[str, AnnualSeries]) -> FitResult:
    return fit(replace(spec, estimator="ols"), data)


def cumulative_fit(spec: LinkSpec, data: Mapping[str, AnnualSeries]) -> FitResult:
    return fit(replace(spec, estimator="cumulative"), data)


def fit_piecewise(spec: LinkSpec, data: Mapping[str, AnnualSeries]) -> FitResult:
    return fit(spec, data)


def scan_lag(
    spec: LinkSpec,
    data: Mapping[str, AnnualSeries],
    lag_range: Sequence[int] = range(-5, 6),
    predictor: str | None = None,
) -> tuple[list[tuple[int, LagScore]], int]:
    """Exhaustive scan over integer lags of one predictor, scores only.

    Each lag is a candidate that shifts the scanned predictor: a lag moves
    the common window unless ``window`` pins it, but every sample fits in
    the spec's frame. Lags ``fit`` would refuse, an illegal sample or a
    rank-deficient design, are dropped. Every kept lag gets a
    ``LagScore`` equal to the matching numbers of ``fit`` at that lag; no
    coefficient, standard error or p-value is computed. Results are in
    candidate order, duplicates included.

    Every lag must be an integer. ``predictor`` (default: the first) must be
    one of the spec's predictors. The best lag maximizes the R^2 of the
    estimator's own curves: cumulative R^2 for cumulative fits, annual R^2
    otherwise. A NaN R^2 never beats a real one; exact ties, all-NaN
    included, go to the smallest |lag|, then the negative one.
    """
    names = [p.name for p in spec.predictors]
    name = names[0] if predictor is None else predictor
    if name not in names:
        raise InputError(f"lag-scan predictor {name!r} is not in the spec {names}")
    criterion = "r2_cumulative" if spec.estimator == "cumulative" else "r2_annual"
    _check_shared(spec)
    _check_series(spec, data)  # a missing series fails every lag alike
    lags = [json_int("lag", lag) for lag in lag_range]
    labels = _param_labels(spec, spec.break_year is not None)
    scanned = names.index(name)
    shifts = [tuple(lag if i == scanned else p.lag for i, p in enumerate(spec.predictors))
              for lag in lags]
    legal, _ = _candidates(spec, data, labels, shifts, [spec.break_year], drop_sample_errors=True)
    scores: dict[int, LagScore] = {}
    passes = _score(spec, labels, legal, _stack_curves)
    for candidates, ((_, rss, _, full_rank), annual, cumulative), n in passes:
        rows = zip(*_scores(spec.estimator, rss, annual, cumulative, n))
        scores.update((shift[scanned], LagScore(spec.estimator, *map(float, row)))
                      for (shift, _), row, ok in zip(candidates, rows, full_rank) if ok)
    results = [(lag, scores[lag]) for lag in lags if lag in scores]
    if not results:
        raise InputError("no lag in the range yields a legal sample")
    best = max(results, key=lambda item: (_rank_value(getattr(item[1], criterion)),
                                          -abs(item[0]), -item[0]))
    return results, best[0]


def _scores(estimator, rss, annual, cumulative, n):
    """Annual and cumulative SSE, then annual and cumulative R^2, of samples
    of ``n`` rows: the estimator's own SSE is the kernel's ``rss``, the rest
    are computed from the (observed, predicted) curves."""
    sse = (_sse(*annual), rss) if estimator == "cumulative" else (rss, _sse(*cumulative))
    return (*sse, r_squared_stack(*annual, n), r_squared_stack(*cumulative, n))


def _rank_value(criterion: float) -> float:
    """NaN criteria (zero-variance response) rank below every real value."""
    return -math.inf if math.isnan(criterion) else criterion


def scan_break(
    spec: LinkSpec,
    data: Mapping[str, AnnualSeries],
    candidate_years: Sequence[int],
) -> tuple[list[tuple[int, float]], int]:
    """Exhaustive piecewise fit over candidate break years, SSE only.

    Each year's SSE is the estimator's objective SSE, the kernel's rss read
    off the R factor of that year's reduced stack, as its ``fit`` reads it;
    no coefficient, prediction or curve is computed. Each year is a
    candidate on the spec's one sample, aligned once; an error of that
    sample is the scan's. Years ``fit`` would refuse, outside
    the window, under the segment floor or with a rank-deficient design, are
    dropped. Every year must be an integer, and each distinct one is solved
    once. Best year minimizes the estimator's total SSE; ties go to the
    earliest year. Results are in candidate order, duplicates included.
    """
    if spec.break_year is not None:
        raise InputError(f'"break_year" {spec.break_year} is what scan_break chooses; drop it')
    years = [json_int("break_year", year) for year in candidate_years]
    labels = _param_labels(spec, True)
    try:  # a constant predictor fails every candidate
        legal, _ = _candidates(spec, data, labels, [tuple(p.lag for p in spec.predictors)], years)
    except EstimationError as exc:
        raise InputError(str(exc)) from exc
    sse: dict[int, float] = {}
    for candidates, (_, rss, full_rank), _ in _score(spec, labels, legal, _factor):
        sse.update((year, float(e)) for (_, year), e, ok in zip(candidates, rss, full_rank) if ok)
    profile = [(year, sse[year]) for year in years if year in sse]
    if not profile:
        raise InputError("no candidate break year yields a legal piecewise fit")
    best = min(profile, key=lambda item: (item[1], item[0]))
    return profile, best[0]


def _score(spec: LinkSpec, labels, legal, finish):
    """The scorer: the builder's legal candidates as slices of the spec's
    frame, in stacked passes of at most ``_STACK_ENTRIES`` design entries.
    Yields each pass's candidates, ``finish(estimator, Xy, y, n)`` of its
    stack ``[X | y]``, and its sample lengths n (None when every sample
    fills the frame: nothing is masked). A sample that every slice of a
    pass shares is broadcast, not copied. Each caller's ``finish`` takes
    the stack only as far as what it ranks needs."""
    rows = len(legal[0][1][0]) if legal else 1
    step = max(1, _STACK_ENTRIES // (rows * len(labels)))  # candidates per pass
    for i in range(0, len(legal), step):
        candidates, samples = zip(*legal[i:i + step])
        if all(sample is samples[0] for sample in samples):
            samples = samples[:1]
        yvs, cols, years, lengths = zip(*samples)
        yv, years = _stacked(yvs), _stacked(years)
        cols = {p.name: _stacked([c[p.name] for c in cols]) for p in spec.predictors}
        n = None if min(lengths) == rows else np.array(lengths)
        Xy = _design(labels, cols, years, [year for _, year in candidates], yv, n)
        yield candidates, finish(spec.estimator, Xy, yv, n), n


def _stacked(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """One array as it is, which broadcasts to every slice; more, one row per slice."""
    return arrays[0] if len(arrays) == 1 else np.stack(arrays)


def _stack_curves(estimator, Xy, yv, n=None):
    """``_solve``'s ``(beta, rss, N R^-1, full_rank)`` and the annual and
    cumulative (observed, predicted) curves of every slice of a stack
    ``[X | y]`` whose y is ``yv`` and whose samples have ``n`` rows. Like
    the design, every curve is zero past its sample."""
    solution = _solve(estimator, Xy, n)
    pred = matvec(Xy[..., :-1], solution[0])
    cumulative = np.cumsum(yv, axis=-1), np.cumsum(pred, axis=-1)
    if n is not None:
        in_sample = sample_rows(n, Xy.shape[-2])
        cumulative = tuple(curve * in_sample for curve in cumulative)
    return solution, (yv, pred), cumulative


def _factor(estimator, Xy, yv, n=None):
    """``factor_stack``'s ``(R, rss, full_rank)`` of the ``_reduce``d stack
    ``[X | y]``: the rss is the estimator's own SSE, all a break scan ranks
    by, with no R^-1, coefficients, predictions or curves."""
    return factor_stack(_reduce(estimator, Xy, n)[0], n)


def predict(
    fitres: FitResult,
    data: Mapping[str, AnnualSeries],
    years: Sequence[int],
) -> AnnualSeries:
    """Evaluate a fitted model on consecutive years through the fit's own design.

    Years before the break take the pre-break coefficients, inside the fit
    window or not. Terms are summed left to right, intercept first, not by a
    BLAS dot product whose order is unspecified.
    """
    years = list(years)
    if not years:
        raise InputError("no years requested")
    if years != list(range(years[0], years[-1] + 1)):
        raise InputError("prediction years must be consecutive")
    spec = fitres.spec
    cols = {}
    for p in spec.predictors:
        if p.name not in data:
            raise InputError(f"predictor series {p.name!r} missing from data")
        try:
            (cols[p.name],), got = align([(data[p.name], p.lag)], (years[0], years[-1]))
        except InputError:
            got = []
        if len(got) < len(years):
            # the first requested year t whose x(t - lag) the series lacks
            want = got[-1] + 1 if len(got) and got[0] == years[0] else years[0]
            raise InputError(f"predictor {p.name!r} missing year {want - p.lag} (lag {p.lag})")
    labels = _param_labels(spec, spec.break_year is not None)
    X = _design(labels, cols, np.array(years), [spec.break_year])[0]
    acc = np.zeros(len(years))
    for j, b in enumerate(fitres.coefficient_table().values()):
        acc = acc + X[:, j] * b
    return AnnualSeries(years[0], acc, label=f"predicted {spec.response}",
                        units=fitres.residuals.units)
