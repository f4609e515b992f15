import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lfphillips.errors import DomainError, InputError
from lfphillips.series import (
    AnnualSeries,
    align,
    log_growth,
)


def persons(start_year, values):
    return AnnualSeries(start_year, tuple(values), units="persons")


def frac(start_year, values):
    return AnnualSeries(start_year, tuple(values), units="fraction")


class TestAnnualSeries:
    def test_rejects_empty(self):
        with pytest.raises(InputError):
            AnnualSeries(1980, ())

    def test_rejects_unknown_units(self):
        with pytest.raises(InputError):
            AnnualSeries(1980, (1.0,), units="percent")

    def test_rejects_nan(self):
        with pytest.raises(InputError):
            AnnualSeries(1980, (1.0, float("nan")))

    def test_year_indexing(self):
        s = frac(1980, [1, 2, 3])
        assert s.end_year == 1982
        assert s.value(1981) == 2.0
        with pytest.raises(InputError):
            s.value(1983)

    def test_window(self):
        s = frac(1980, [1, 2, 3, 4])
        w = s.window(1981, 1982)
        assert w.start_year == 1981 and w.values == (2.0, 3.0)
        with pytest.raises(InputError):
            s.window(1979, 1982)


class TestConstruction:
    def test_numpy_array_values(self):
        s = AnnualSeries(1980, np.array([1.0, 2.0]))
        assert s.values == (1.0, 2.0)
        assert all(type(v) is float for v in s.values)

    def test_empty_numpy_array_rejected(self):
        with pytest.raises(InputError, match="at least one value"):
            AnnualSeries(1980, np.array([]))

    def test_names_the_first_non_finite_year(self):
        with pytest.raises(InputError, match="non-finite value at year 1981$"):
            AnnualSeries(1980, (1.0, math.inf, math.nan))

class TestLogGrowth:
    def test_constant_level(self):
        assert log_growth(persons(1980, [100, 100])).values == (0.0,)

    def test_one_percent(self):
        g = log_growth(persons(1980, [100, 101]))
        assert g.start_year == 1981
        assert g.values[0] == pytest.approx(math.log(1.01), abs=1e-12)

    def test_up_down(self):
        g = log_growth(persons(1980, [100, 110, 99]))
        assert g.values[0] == pytest.approx(0.095310, abs=1e-6)
        assert g.values[1] == pytest.approx(-0.105361, abs=1e-6)

    def test_nonpositive_level(self):
        with pytest.raises(DomainError):
            log_growth(persons(1980, [100, 0]))

    def test_too_short(self):
        with pytest.raises(InputError):
            log_growth(persons(1980, [100]))

    def test_requires_persons(self):
        with pytest.raises(InputError):
            log_growth(frac(1980, [1, 2]))

    def test_units_tag(self):
        assert log_growth(persons(1980, [100, 101])).units == "fraction-per-year"


class TestTelescoping:
    def test_telescoping_with_log_growth(self):
        lf = persons(1980, [100.0, 103.5, 99.2, 120.0, 118.1])
        expected = math.log(lf.values[-1]) - math.log(lf.values[0])
        assert sum(log_growth(lf).values) == pytest.approx(expected, abs=1e-12)

    @given(st.lists(st.floats(1.0, 1e6), min_size=2, max_size=30))
    def test_telescoping_property(self, levels):
        total = sum(log_growth(persons(1980, levels)).values)
        assert total == pytest.approx(math.log(levels[-1]) - math.log(levels[0]), abs=1e-10)


class TestAlign:
    def test_full_overlap(self):
        a = frac(1980, range(11))
        b = frac(1980, range(11))
        (xs, ys), years = align([(a, 0), (b, 0)])
        assert len(xs) == len(ys) == 11
        assert years.tolist() == list(range(1980, 1991))

    def test_partial_overlap(self):
        a = frac(1980, range(11))  # 1980-1990
        b = frac(1985, range(11))  # 1985-1995
        (xs, ys), years = align([(a, 0), (b, 0)])
        assert len(xs) == 6
        assert years.tolist() == list(range(1985, 1991))

    def test_lag_and_window(self):
        a = frac(1980, range(11))  # 1980-1990
        b = frac(1980, range(100, 111))
        # b lagged by 2 gives year t the value b(t - 2)
        (xs, ys), years = align([(a, 0), (b, 2)], window=(1981, 1985))
        assert years.tolist() == list(range(1982, 1986))
        assert xs.tolist() == [2.0, 3.0, 4.0, 5.0]
        assert ys.tolist() == [100.0, 101.0, 102.0, 103.0]

    def test_disjoint(self):
        a = frac(1980, range(6))
        b = frac(1990, range(6))
        with pytest.raises(InputError, match="^empty aligned sample; check lags and window$"):
            align([(a, 0), (b, 0)])

    @given(st.integers(1970, 1990), st.integers(1970, 1990),
           st.integers(1, 15), st.integers(1, 15), st.integers(-5, 5))
    def test_overlap_length(self, sa, sb, na, nb, lag):
        a = frac(sa, [0.0] * na)
        b = frac(sb, [0.0] * nb)
        expected = len(set(a.years) & {y + lag for y in b.years})
        if expected == 0:
            with pytest.raises(InputError):
                align([(a, 0), (b, lag)])
        else:
            (xs, _), _ = align([(a, 0), (b, lag)])
            assert len(xs) == expected
