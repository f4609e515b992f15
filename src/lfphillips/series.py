"""Annual time series and the transforms the estimators are built on.

The carrier type is :class:`AnnualSeries`: a year-indexed, gap-free vector of
floats with a units tag. All rate-typed values are dimensionless fractions
(0.05 means 5% per year); percent exists only at the ingest and plotting
boundaries. Every operation here is a pure function returning a new series.

A series holds its values once, as ``array``: a read-only float64 ndarray
built and validated at construction, which numeric code (alignment, fits,
ADF) reads as it is. The public ``values`` tuple of Python floats is built
from it the first time it is read, so a residual, prediction or windowed
copy costs no Python float unless something prints or compares it.

``align`` is the one rule that pairs series by year and lag: every fit,
scan, prediction and scatter chart takes its aligned values from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .errors import DomainError, InputError

VALID_UNITS = ("fraction-per-year", "fraction", "persons")


class _Values:
    """The ``values`` field of :class:`AnnualSeries`.

    The constructor's argument is kept as given until ``__post_init__`` has
    validated it into ``array``; afterwards the tuple of Python floats is
    built from ``array`` on the first read and cached.
    """

    def __get__(self, obj, owner=None):
        if obj is None:  # read on the class: the field has no default
            raise AttributeError("values")
        values = obj.__dict__["_values"]
        if values is None:
            values = obj.__dict__["_values"] = tuple(obj.array.tolist())
        return values

    def __set__(self, obj, value) -> None:
        obj.__dict__["_values"] = value


@dataclass(frozen=True)
class AnnualSeries:
    """Consecutive annual values starting at ``start_year``.

    Gaps are illegal by construction; a missing year must be handled at
    ingest time, never silently interpolated.

    ``values`` may be given as any iterable of numbers, an ndarray included.
    It is validated and stored once, as ``array``: a read-only float64
    ndarray. Reading ``values`` gives the public tuple of Python floats,
    bit-equal to ``array``, built on the first read; equality, hashing and
    ``repr`` compare and show that tuple.
    """

    start_year: int
    values: tuple[float, ...] = _Values()
    label: str = ""
    units: str = "fraction"
    array: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        values = self.__dict__["_values"]
        if not isinstance(values, (tuple, list, np.ndarray)):
            values = list(values)
        arr = np.array(values, dtype=np.float64)
        if arr.ndim != 1:
            raise InputError("series values must be a flat sequence of numbers")
        if arr.size == 0:
            raise InputError("series must contain at least one value")
        if self.units not in VALID_UNITS:
            raise InputError(f"unknown units {self.units!r}; expected one of {VALID_UNITS}")
        finite = np.isfinite(arr)
        if not finite.all():
            bad = int(np.argmin(finite))
            raise InputError(f"non-finite value at year {self.start_year + bad}")
        arr.flags.writeable = False
        self.__dict__.update(_values=None, array=arr)

    def __reduce__(self):
        # copies and pickles go through the constructor, so they are validated
        # and their array is read-only like the original's
        return type(self), (self.start_year, self.array, self.label, self.units)

    @property
    def end_year(self) -> int:
        return self.start_year + len(self.array) - 1

    @property
    def years(self) -> range:
        return range(self.start_year, self.end_year + 1)

    def __len__(self) -> int:
        return len(self.array)

    def value(self, year: int) -> float:
        if not (self.start_year <= year <= self.end_year):
            raise InputError(f"year {year} outside series range {self.start_year}..{self.end_year}")
        return float(self.array[year - self.start_year])

    def window(self, first: int, last: int) -> "AnnualSeries":
        """Restrict to the years first..last (inclusive)."""
        if first > last:
            raise InputError(f"empty window {first}:{last}")
        if first < self.start_year or last > self.end_year:
            raise InputError(
                f"window {first}:{last} not covered by series {self.start_year}..{self.end_year}"
            )
        lo = first - self.start_year
        return replace(self, start_year=first, values=self.array[lo : lo + (last - first + 1)])

    def relabel(self, label: str) -> "AnnualSeries":
        return replace(self, label=label, values=self.array)

    def scale(self, factor: float) -> "AnnualSeries":
        return replace(self, values=self.array * factor)


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


def align(pairs: Sequence[tuple[AnnualSeries, int]],
          window: tuple[int, int] | None = None) -> tuple[list[np.ndarray], np.ndarray]:
    """The value of each series at t - lag for every year t that all of them cover.

    ``pairs`` are (series, lag) pairs; ``window`` clips the years to
    first..last (inclusive). A series lagged by k covers its own years plus
    k, so its values are one slice of the series. Returns that slice for
    each pair, in order, and the years. No year left raises InputError.
    """
    aligned = [(s, s.start_year + lag) for s, lag in pairs]
    first = max(start for _, start in aligned)
    last = min(start + len(s) - 1 for s, start in aligned)
    if window is not None:
        first, last = max(first, window[0]), min(last, window[1])
    if first > last:
        raise InputError("empty aligned sample; check lags and window")
    values = [np.array(s.array[first - start:last - start + 1]) for s, start in aligned]
    return values, np.arange(first, last + 1)
