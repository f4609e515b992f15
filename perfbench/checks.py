"""Reference answers and per-operation output checks.

The references share no solver with ``lfphillips.estimate``: OLS goes through
``oracle.brute_force_ols`` (Gauss-Jordan on the normal equations) and the
cumulative fit through the closed form below. A check raises
:class:`CheckFailed` with a one-line reason.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np

from lfphillips import oracle

OLS_RTOL = 1e-8
CUMULATIVE_RTOL = 1e-6
SSE_RTOL = 1e-12
PATH_ATOL = 1e-12


class CheckFailed(Exception):
    """An operation's output disagrees with its reference."""


def require(ok: bool, reason: str) -> None:
    if not ok:
        raise CheckFailed(reason)


def close(a: float, b: float, rtol: float, atol: float = 0.0) -> bool:
    return abs(a - b) <= atol + rtol * max(abs(a), abs(b))


def require_close(got: Mapping[str, float], want: Mapping[str, float], rtol: float,
                  what: str) -> None:
    require(set(got) == set(want), f"{what}: labels {sorted(got)} != {sorted(want)}")
    for k in want:
        require(close(got[k], want[k], rtol, atol=1e-12),
                f"{what}: {k} = {got[k]!r}, reference {want[k]!r}")


def ols_reference(y: Sequence[float], columns: Sequence[Sequence[float]]) -> np.ndarray:
    """Intercept first, then one slope per column."""
    y = np.asarray(y, dtype=float)
    X = np.column_stack([np.ones(len(y))] + [np.asarray(c, dtype=float) for c in columns])
    return oracle.brute_force_ols(X, y)


def closed_form_cumulative(y: Sequence[float],
                           columns: Sequence[Sequence[float]]) -> tuple[float, np.ndarray]:
    """Endpoint-constrained cumulative fit with one shared intercept.

    With cumulated series Y(t) and X_j(t), t = 1..n, the prediction is
    a*t + sum_j b_j X_j(t) and the constraint a*n + sum_j b_j X_j(n) = Y(n)
    fixes a. Substituting it leaves an ordinary regression without intercept
    of the constraint-detrended Y(t) - (t/n) Y(n) on X_j(t) - (t/n) X_j(n).
    Returns (a, b).
    """
    y = np.asarray(y, dtype=float)
    n = len(y)
    share = np.arange(1, n + 1) / n
    Y = np.cumsum(y)
    Xs = [np.cumsum(np.asarray(c, dtype=float)) for c in columns]
    Xd = np.column_stack([X - share * X[-1] for X in Xs])
    b = oracle.brute_force_ols(Xd, Y - share * Y[-1])
    a = (Y[-1] - sum(bj * X[-1] for bj, X in zip(b, Xs))) / n
    return float(a), b


def check_break_scan(profile, best, candidates, chosen: int, chosen_sse: float | None) -> None:
    """``profile`` is in candidate order, holds the seed-chosen year with the
    SSE a direct fit gives (or omits it when that fit is illegal), and
    ``best`` has the least SSE with ties going to the earliest year."""
    years = [y for y, _ in profile]
    order = {y: i for i, y in enumerate(candidates)}
    require(all(y in order for y in years), "profile holds a year that was not a candidate")
    require(years == sorted(years, key=order.__getitem__), "profile out of candidate order")
    got = dict(profile)
    if chosen_sse is None:
        require(chosen not in got, f"illegal candidate {chosen} kept in the profile")
    else:
        require(chosen in got, f"legal candidate {chosen} missing from the profile")
        require(close(got[chosen], chosen_sse, SSE_RTOL),
                f"SSE at {chosen} is {got[chosen]!r}, direct fit gives {chosen_sse!r}")
    least = min(sse for _, sse in profile)
    require(best == min(y for y, sse in profile if sse == least),
            f"best year {best} breaks the least-SSE, earliest-year rule")


def check_lag_scan(results, best, candidates, criterion: str, chosen: int,
                   chosen_sse: float | None) -> None:
    """Like :func:`check_break_scan` for lags; the best lag maximizes
    ``criterion`` with ties going to the smallest |lag|, then the negative."""
    lags = [lag for lag, _ in results]
    require(lags == [c for c in candidates if c in set(lags)], "lags out of candidate order")
    got = {lag: r.objective_sse for lag, r in results}
    if chosen_sse is None:
        require(chosen not in got, f"illegal lag {chosen} kept in the results")
    else:
        require(chosen in got, f"legal lag {chosen} missing from the results")
        require(close(got[chosen], chosen_sse, SSE_RTOL),
                f"SSE at lag {chosen} is {got[chosen]!r}, direct fit gives {chosen_sse!r}")
    scores = {lag: getattr(r, criterion) for lag, r in results}
    top = max(scores.values())
    tied = [lag for lag, s in scores.items() if s == top]
    require(best == min(tied, key=lambda lag: (abs(lag), lag)),
            f"best lag {best} breaks the max-{criterion}, smallest-|lag| rule")


def direct_forecast(entries, labor_force: np.ndarray, base_year: int,
                    horizon: tuple[int, int]) -> dict[str, np.ndarray]:
    """Evaluate registry entries on a labor-force path by their coefficients.

    Unemployment models run first; the first one feeds ``u`` to the inflation
    models. Keys follow ``ForecastResult.all_paths``.
    """
    growth = np.diff(np.log(labor_force))  # growth[k] is for year base_year + 1 + k
    years = np.arange(horizon[0], horizon[1] + 1)
    g = growth[years - base_year - 1]

    def evaluate(entry, u):
        out = np.empty(len(years))
        for i, year in enumerate(years):
            coeff = next(c for (lo, hi), c in entry.segments
                         if (lo is None or year >= lo) and (hi is None or year <= hi))
            out[i] = coeff["intercept"] + coeff.get("l", 0.0) * g[i]
            if "u" in coeff:
                out[i] += coeff["u"] * u[i]
        return out

    paths = {}
    unemployment = [e for e in entries if e.response == "unemployment"]
    companion = None
    for e in unemployment:
        paths[f"unemployment[{e.identifier}]"] = evaluate(e, None)
        if companion is None:
            companion = paths[f"unemployment[{e.identifier}]"]
    for e in entries:
        if e.response != "unemployment":
            paths[f"inflation[{e.identifier}]"] = evaluate(e, companion)
    return paths


def require_paths(got: Mapping[str, Sequence[float]], want: Mapping[str, np.ndarray],
                  what: str) -> None:
    require(sorted(got) == sorted(want), f"{what}: paths {sorted(got)} != {sorted(want)}")
    for k, w in want.items():
        g = np.asarray(got[k], dtype=float)
        require(g.shape == w.shape and bool(np.all(np.abs(g - w) <= PATH_ATOL)),
                f"{what}: {k} differs from the direct evaluation")


def finite(v: float) -> bool:
    return isinstance(v, float) and math.isfinite(v)
