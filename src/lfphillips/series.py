"""Annual time series and the transforms the estimators are built on.

The carrier type is :class:`AnnualSeries`: a year-indexed, gap-free vector of
floats with a units tag. All rate-typed values are dimensionless fractions
(0.05 means 5% per year); percent exists only at the ingest and plotting
boundaries. Every operation here is a pure function returning a new series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import DomainError, InputError

VALID_UNITS = ("fraction-per-year", "fraction", "persons")


@dataclass(frozen=True)
class AnnualSeries:
    """Consecutive annual values starting at ``start_year``.

    Gaps are illegal by construction; a missing year must be handled at
    ingest time, never silently interpolated.
    """

    start_year: int
    values: tuple[float, ...]
    label: str = ""
    units: str = "fraction"

    def __post_init__(self) -> None:
        values = tuple(map(float, self.values))
        if not values:
            raise InputError("series must contain at least one value")
        if self.units not in VALID_UNITS:
            raise InputError(f"unknown units {self.units!r}; expected one of {VALID_UNITS}")
        if not all(map(math.isfinite, values)):
            bad = next(i for i, v in enumerate(values) if not math.isfinite(v))
            raise InputError(f"non-finite value at year {self.start_year + bad}")
        object.__setattr__(self, "values", values)

    @property
    def end_year(self) -> int:
        return self.start_year + len(self.values) - 1

    @property
    def years(self) -> range:
        return range(self.start_year, self.end_year + 1)

    def __len__(self) -> int:
        return len(self.values)

    def value(self, year: int) -> float:
        if not (self.start_year <= year <= self.end_year):
            raise InputError(f"year {year} outside series range {self.start_year}..{self.end_year}")
        return self.values[year - self.start_year]

    def window(self, first: int, last: int) -> "AnnualSeries":
        """Restrict to the years first..last (inclusive)."""
        if first > last:
            raise InputError(f"empty window {first}:{last}")
        if first < self.start_year or last > self.end_year:
            raise InputError(
                f"window {first}:{last} not covered by series {self.start_year}..{self.end_year}"
            )
        lo = first - self.start_year
        return replace(self, start_year=first, values=self.values[lo : lo + (last - first + 1)])

    def relabel(self, label: str) -> "AnnualSeries":
        return replace(self, label=label)

    def __add__(self, other: "AnnualSeries") -> "AnnualSeries":
        return self._combine(other, lambda a, b: a + b)

    def __sub__(self, other: "AnnualSeries") -> "AnnualSeries":
        return self._combine(other, lambda a, b: a - b)

    def _combine(self, other, op) -> "AnnualSeries":
        if not isinstance(other, AnnualSeries):
            return NotImplemented
        if other.units != self.units:
            raise InputError(f"units mismatch: {self.units} vs {other.units}")
        if other.start_year != self.start_year or len(other) != len(self):
            raise InputError("year ranges differ; align the series first")
        return replace(self, values=tuple(op(a, b) for a, b in zip(self.values, other.values)))

    def scale(self, factor: float) -> "AnnualSeries":
        return replace(self, values=tuple(v * factor for v in self.values))


def log_growth(lf: AnnualSeries) -> AnnualSeries:
    """Annual log-difference of a level series: ln(LF(t)) - ln(LF(t-1)).

    The backward log-difference is used (not the relative difference) so that
    cumulative sums telescope exactly to ln(LF(T)) - ln(LF(first)).
    """
    if lf.units != "persons":
        raise InputError(f"log_growth expects a persons-level series, got units {lf.units!r}")
    if len(lf) < 2:
        raise InputError("log_growth needs at least two points")
    for i, v in enumerate(lf.values):
        if v <= 0:
            raise DomainError(f"non-positive level {v} at year {lf.start_year + i}")
    vals = tuple(
        math.log(lf.values[i]) - math.log(lf.values[i - 1]) for i in range(1, len(lf))
    )
    return AnnualSeries(lf.start_year + 1, vals, label=lf.label, units="fraction-per-year")


def shift(s: AnnualSeries, lag: int) -> AnnualSeries:
    """Re-index: the value formerly at year y moves to year y + lag."""
    return replace(s, start_year=s.start_year + lag)


def align(a: AnnualSeries, b: AnnualSeries, lag_b: int = 0) -> tuple[list[float], list[float], range]:
    """Pair a(t) with b(t - lag_b) over the common year window.

    Returns (a_values, b_values, years) where years is the overlap of a with
    shift(b, lag_b).
    """
    bs = shift(b, lag_b)
    first = max(a.start_year, bs.start_year)
    last = min(a.end_year, bs.end_year)
    if first > last:
        raise InputError(
            f"no overlap between {a.start_year}..{a.end_year} and shifted {bs.start_year}..{bs.end_year}"
        )
    years = range(first, last + 1)
    return [a.value(y) for y in years], [bs.value(y) for y in years], years
