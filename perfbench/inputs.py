"""Seeded inputs for the benchmark workloads.

Every random draw comes from numpy's PCG64 (directly, or through
``lfphillips.oracle``), so one seed always gives the same inputs. Nothing here
times anything or touches the package's estimators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from lfphillips import oracle
from lfphillips.series import AnnualSeries

SCAN_LENGTHS = (40, 160)
LONG_LENGTH = 4000
LONG_START_YEAR = 1000
SCENARIO_COUNT = 20
SCENARIO_HORIZON = (2011, 2050)
SCENARIO_BASE_YEAR = 2010


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64([seed, stream]))


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**32))


@dataclass(frozen=True)
class SyntheticScanData:
    """One scan-sweep dataset pair at length ``n``.

    ``single`` holds ``x`` and ``y`` from ``oracle.generate`` with a true break
    in the middle of the window; ``pair`` holds ``xa``, ``xb`` and ``y`` from
    ``oracle.generate_two_predictors``.
    """

    n: int
    break_year: int
    single: dict[str, AnnualSeries]
    pair: dict[str, AnnualSeries]


def scan_datasets(seed: int) -> list[SyntheticScanData]:
    rng = _rng(seed, 1)
    out = []
    for n in SCAN_LENGTHS:
        start = 1980
        brk = start + n // 2
        spec = oracle.SynthSpec(
            intercept=float(rng.uniform(-0.01, 0.01)),
            slope=float(rng.uniform(0.8, 2.0)),
            break_year=brk,
            post_intercept=float(rng.uniform(-0.01, 0.01)),
            post_slope=float(rng.uniform(-1.5, -0.3)),
            noise_sigma=0.002,
            length=n,
            seed=_seed(rng),
            start_year=start,
        )
        x, y = oracle.generate(spec)
        xa, xb, y2 = oracle.generate_two_predictors(
            intercept=float(rng.uniform(-0.01, 0.01)),
            slope_a=float(rng.uniform(0.5, 2.0)),
            slope_b=float(rng.uniform(-2.0, -0.5)),
            noise_sigma=0.002,
            length=n,
            seed=_seed(rng),
            start_year=start,
        )
        out.append(SyntheticScanData(n, brk, {"x": x, "y": y}, {"xa": xa, "xb": xb, "y": y2}))
    return out


def pick(seed: int, stream: int, choices):
    """One seed-chosen element of ``choices`` (used to pick the checked candidate)."""
    choices = list(choices)
    return choices[int(_rng(seed, stream).integers(0, len(choices)))]


@dataclass(frozen=True)
class LongSeriesData:
    """Three n=4000 datasets: no break (OLS), no break (cumulative), and a
    mid-window slope break with a shared intercept (cumulative)."""

    ols: dict[str, AnnualSeries]
    cumulative: dict[str, AnnualSeries]
    broken: dict[str, AnnualSeries]
    break_year: int


def long_series(seed: int) -> LongSeriesData:
    rng = _rng(seed, 2)
    brk = LONG_START_YEAR + LONG_LENGTH // 2

    def make(with_break: bool) -> dict[str, AnnualSeries]:
        a = float(rng.uniform(-0.01, 0.01))
        spec = oracle.SynthSpec(
            intercept=a,
            slope=float(rng.uniform(0.8, 2.0)),
            break_year=brk if with_break else None,
            post_intercept=a if with_break else None,
            post_slope=float(rng.uniform(-1.5, -0.3)) if with_break else None,
            noise_sigma=0.003,
            length=LONG_LENGTH,
            seed=_seed(rng),
            start_year=LONG_START_YEAR,
        )
        x, y = oracle.generate(spec)
        return {"x": x, "y": y}

    return LongSeriesData(make(False), make(False), make(True), brk)


@dataclass(frozen=True)
class ScenarioInput:
    """A labor-force path as a scenario JSON document plus any CSV it names.

    Linear scenarios decline from a 2010 level in U(60M, 70M) to that level
    times U(0.7, 1.0) in 2050. Every fifth scenario is a population path
    (U(120M, 130M) in 2010, declining by the same kind of factor) times a
    participation rate in U(0.5, 0.6).
    """

    document: dict
    csv_name: str | None
    csv_text: str | None
    labor_force: np.ndarray  # persons, years SCENARIO_BASE_YEAR..horizon end


def scenarios(seed: int) -> list[ScenarioInput]:
    rng = _rng(seed, 3)
    first, last = SCENARIO_BASE_YEAR, SCENARIO_HORIZON[1]
    steps = last - first
    out = []
    for i in range(SCENARIO_COUNT):
        horizon = list(SCENARIO_HORIZON)
        if i % 5 == 4:
            p0 = float(rng.uniform(120e6, 130e6))
            p1 = p0 * float(rng.uniform(0.7, 1.0))
            rate = float(rng.uniform(0.5, 0.6))
            pop = [p0 + (p1 - p0) * k / steps for k in range(steps + 1)]
            name = f"population_{i:02d}.csv"
            text = "year,value\n" + "".join(f"{first + k},{v!r}\n" for k, v in enumerate(pop))
            doc = {"horizon": horizon, "population_csv": name, "units": "persons",
                   "participation": rate}
            out.append(ScenarioInput(doc, name, text, rate * np.array(pop)))
        else:
            v0 = float(rng.uniform(60e6, 70e6))
            v1 = v0 * float(rng.uniform(0.7, 1.0))
            doc = {"horizon": horizon,
                   "linear": {"start_year": first, "end_year": last, "start": v0, "end": v1}}
            out.append(ScenarioInput(doc, None, None, v0 + (v1 - v0) * np.arange(steps + 1) / steps))
    return out
