import copy
import dataclasses
import math
import pickle
from dataclasses import replace

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


def assert_array_matches_values(s):
    assert s.array.dtype == np.float64
    assert not s.array.flags.writeable
    assert s.array.tolist() == list(s.values)
    assert s.array.tobytes() == np.array(s.values, dtype=np.float64).tobytes()
    assert all(type(v) is float for v in s.values)


class TestArray:
    """``array`` is a read-only float64 copy of ``values``, built once."""

    @pytest.mark.parametrize("make", [
        lambda: (1.5, -0.0, 2.0, 1e300),
        lambda: [3, 1, -4, 2**53 + 1],
        lambda: (v / 8 for v in range(-3, 5)),
        lambda: np.array([0.1, 1e-8, -2.5, 3.0], dtype=np.float32),
        lambda: np.arange(30.0)[::7],
        lambda: np.arange(12.0).reshape(3, 4)[:, 1],
    ], ids=["tuple", "int-list", "generator", "float32", "strided", "column"])
    def test_construction_forms_agree(self, make):
        expected = tuple(map(float, make()))
        s = AnnualSeries(1980, make())
        assert s.values == expected
        assert [math.copysign(1.0, v) for v in s.values] == \
            [math.copysign(1.0, v) for v in expected]
        assert_array_matches_values(s)

    @pytest.mark.parametrize("empty", [(), [], np.array([]), iter(())])
    def test_empty_message(self, empty):
        with pytest.raises(InputError, match="^series must contain at least one value$"):
            AnnualSeries(1980, empty)

    @pytest.mark.parametrize("bad, year", [
        ((1.0, float("nan")), 1981),
        ((float("inf"), 1.0), 1980),
        ([1.0, 2.0, -math.inf], 1982),
        (np.array([0.0, 1.0, np.nan, np.inf]), 1982),
    ])
    def test_non_finite_message(self, bad, year):
        with pytest.raises(InputError, match=f"^non-finite value at year {year}$"):
            AnnualSeries(1980, bad)

    def test_nested_values_rejected(self):
        with pytest.raises(InputError, match="flat sequence"):
            AnnualSeries(1980, [[1.0, 2.0]])

    def test_array_is_read_only_and_private(self):
        source = np.array([1.0, 2.0, 3.0])
        s = AnnualSeries(1980, source)
        with pytest.raises(ValueError):
            s.array[0] = 9.0
        source[0] = 9.0
        assert s.values[0] == 1.0 and s.array[0] == 1.0

    def test_array_outside_equality_hash_and_repr(self):
        a, b = AnnualSeries(1980, (1.0, 2.0)), AnnualSeries(1980, [1, 2])
        assert a == b and hash(a) == hash(b)
        assert "array" not in repr(a)

    def test_derived_series_carry_a_consistent_array(self):
        s = frac(1980, [0.25, -1.5, 3.0, 7.125, 0.1])
        for derived in (s.window(1981, 1983), s.window(1980, 1980), s.scale(100.0),
                        s.scale(-0.3), s.relabel("r")):
            assert_array_matches_values(derived)
        assert s.window(1981, 1983).values == s.values[1:4]
        assert s.scale(-0.3).values == tuple(v * -0.3 for v in s.values)

    @given(st.integers(1970, 1990), st.integers(1970, 1990),
           st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=15),
           st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=15),
           st.integers(-3, 3), st.integers(-3, 3),
           st.none() | st.tuples(st.integers(1965, 2000), st.integers(1965, 2000)))
    def test_align_matches_tuple_slices(self, sa, sb, va, vb, la, lb, window):
        a, b = frac(sa, va), frac(sb, vb)
        first, last = max(sa + la, sb + lb), min(sa + la + len(va), sb + lb + len(vb)) - 1
        if window is not None:
            first, last = max(first, window[0]), min(last, window[1])
        if first > last:
            with pytest.raises(InputError):
                align([(a, la), (b, lb)], window)
            return
        (xs, ys), years = align([(a, la), (b, lb)], window)
        assert years.tolist() == list(range(first, last + 1))
        for got, s, lag in ((xs, a, la), (ys, b, lb)):
            lo = first - (s.start_year + lag)
            want = np.array(s.values[lo:lo + last - first + 1])
            assert got.tobytes() == want.tobytes()
            assert got.dtype == np.float64
            assert got.flags.writeable and got.flags.c_contiguous
            got[0] = 42.0  # a fresh copy: the series is untouched
            assert s.values[lo] == want[0]


OBSERVERS = {
    "len": len,
    "end_year": lambda s: s.end_year,
    "years": lambda s: s.years,
    "eq": lambda s: (s == AnnualSeries(1990, [0.1, -2.0, 3.25, 1e-300, 7.0]), s == s.scale(2.0)),
    "hash": hash,
    "repr": repr,
    "replace": lambda s: replace(s, label="copy"),
    "deepcopy": copy.deepcopy,
    "pickle": lambda s: pickle.loads(pickle.dumps(s)),
}


class TestValuesContract:
    """``array`` is the stored form; ``values`` is built from it on first read."""

    RAW = (0.1, -2, 3.25, 1e-300, 7)

    @pytest.mark.parametrize("make", [tuple, list, np.array], ids=["tuple", "list", "ndarray"])
    def test_values_are_python_floats_bit_equal_to_array(self, make):
        s = AnnualSeries(1990, make(self.RAW), label="x")
        assert type(s.values) is tuple and all(type(v) is float for v in s.values)
        assert np.array_equal(np.array(s.values), s.array)
        assert s.array.dtype == np.float64 and not s.array.flags.writeable
        assert s.values == tuple(float(v) for v in self.RAW)

    @pytest.mark.parametrize("make", [tuple, list, np.array], ids=["tuple", "list", "ndarray"])
    @pytest.mark.parametrize("observer", sorted(OBSERVERS))
    def test_first_values_read_changes_nothing_observable(self, make, observer):
        fresh, read = AnnualSeries(1990, make(self.RAW)), AnnualSeries(1990, make(self.RAW))
        read.values  # noqa: B018 - the read under test
        before, after = OBSERVERS[observer](fresh), OBSERVERS[observer](read)
        assert before == after
        if isinstance(before, AnnualSeries):
            assert repr(before) == repr(after)
            assert not before.array.flags.writeable and not after.array.flags.writeable

    def test_integer_readers_do_not_build_values(self):
        s = AnnualSeries(1990, np.arange(5.0))
        assert (len(s), s.end_year, s.years, s.value(1992)) == (5, 1994, range(1990, 1995), 2.0)
        assert type(s.value(1992)) is float
        for derived in (s, s.window(1991, 1993), s.relabel("y"), s.scale(2.0)):
            assert vars(derived)["_values"] is None

    def test_replace_values_validates(self):
        s = AnnualSeries(1990, (1.0, 2.0))
        assert replace(s, values=[3, 4]).values == (3.0, 4.0)
        with pytest.raises(InputError, match="non-finite value at year 1991"):
            replace(s, values=(1.0, math.nan))

    def test_values_is_read_only(self):
        s = AnnualSeries(1990, (1.0, 2.0))
        with pytest.raises(dataclasses.FrozenInstanceError):
            s.values = (3.0,)
