import json
import math

import pytest

from lfphillips import ingest
from lfphillips.errors import InputError
from lfphillips.forecast import (
    MODEL_REGISTRY,
    Scenario,
    build_scenario,
    forecast_report,
    load_scenario,
    report_to_csv,
    report_to_json,
)
from lfphillips.series import AnnualSeries


def lf_path(values, start=2010):
    return AnnualSeries(start, tuple(values), units="persons", label="lf")


def linear_lf(start_year=2010, end_year=2050, start=67_000_000.0, end=57_000_000.0):
    n = end_year - start_year
    return lf_path([start + (end - start) * i / n for i in range(n + 1)], start_year)


@pytest.fixture()
def decline():
    return build_scenario(labor_force=linear_lf(), horizon=(2011, 2050))


class TestBuildScenario:
    def test_constant_path_zero_growth(self):
        s = build_scenario(labor_force=lf_path([1e6] * 10), horizon=(2011, 2019))
        assert all(v == 0.0 for v in s.growth.values)

    def test_mean_growth_of_published_decline(self, decline):
        mean = sum(decline.growth.values) / len(decline.growth.values)
        assert mean == pytest.approx(math.log(57 / 67) / 40, abs=1e-4)

    def test_insufficient_coverage(self):
        with pytest.raises(InputError):
            build_scenario(labor_force=lf_path([1e6] * 5), horizon=(2010, 2014))

    def test_horizon_past_path(self):
        with pytest.raises(InputError):
            build_scenario(labor_force=lf_path([1e6] * 5), horizon=(2011, 2030))


class TestRegistry:
    def test_ships_all_printed_models(self):
        assert set(MODEL_REGISTRY) == {"eq6", "eq7", "eq8", "eq9", "eq10"}

    def test_eq9_segments(self):
        eq9 = MODEL_REGISTRY["eq9"]
        assert eq9.coefficients_for(1976) == {"intercept": 0.0432, "l": -0.179}
        assert eq9.coefficients_for(1977) == {"intercept": 0.0432, "l": -1.556}
        assert eq9.coefficients_for(2050) == {"intercept": 0.0432, "l": -1.556}

    def test_eq10_segments(self):
        eq10 = MODEL_REGISTRY["eq10"]
        assert eq10.coefficients_for(1981)["l"] == -10.0
        assert eq10.coefficients_for(1982)["l"] == 2.80
        assert eq10.coefficients_for(1982)["u"] == 0.9

    def test_paths_carry_the_units_of_the_response_kind(self):
        # a registry response is a manifest kind; ingest alone maps a kind to units
        assert {m.response for m in MODEL_REGISTRY.values()} <= set(ingest.KINDS)
        s = build_scenario(labor_force=lf_path([1e6] * 41), horizon=(2011, 2050))
        models = [m for m in MODEL_REGISTRY.values() if m.identifier != "eq6"]
        report = forecast_report(models, s)
        for name, path in {**report.inflation, **report.unemployment}.items():
            assert path.units == ingest.KIND_UNITS[MODEL_REGISTRY[name].response]


class TestForecastInflation:
    def test_constant_lf_gives_intercept(self):
        s = build_scenario(labor_force=lf_path([1e6] * 41), horizon=(2011, 2050))
        path = forecast_report([MODEL_REGISTRY["eq8"]], s).inflation["eq8"]
        assert all(v == pytest.approx(-0.0084, abs=1e-15) for v in path.values)

    def test_hand_derived_growth_point(self):
        # growth exactly -0.00404 each year
        values = [1e6 * math.exp(-0.00404 * i) for i in range(11)]
        s = build_scenario(labor_force=lf_path(values), horizon=(2011, 2020))
        path = forecast_report([MODEL_REGISTRY["eq8"]], s).inflation["eq8"]
        assert path.values[0] == pytest.approx(-0.0084 + 1.90 * (-0.00404), abs=1e-10)

    def test_generalized_model_needs_unemployment(self, decline):
        with pytest.raises(InputError, match="^model eq10 needs a companion unemployment path$"):
            forecast_report([MODEL_REGISTRY["eq10"]], decline)

    def test_generalized_model_with_companion(self, decline):
        report = forecast_report([MODEL_REGISTRY["eq10"], MODEL_REGISTRY["eq9"]], decline)
        u, pi = report.unemployment["eq9"], report.inflation["eq10"]
        y = 2030
        expected = 2.80 * decline.growth.value(y) + 0.9 * u.value(y) - 0.0392
        assert pi.value(y) == pytest.approx(expected, abs=1e-12)


class TestForecastUnemployment:
    def test_constant_lf_gives_intercept(self):
        s = build_scenario(labor_force=lf_path([1e6] * 41), horizon=(2011, 2050))
        path = forecast_report([MODEL_REGISTRY["eq9"]], s).unemployment["eq9"]
        assert all(v == pytest.approx(0.0432, abs=1e-15) for v in path.values)

    def test_hand_derived_point(self):
        values = [1e6 * math.exp(-0.0040 * i) for i in range(11)]
        s = build_scenario(labor_force=lf_path(values), horizon=(2011, 2020))
        path = forecast_report([MODEL_REGISTRY["eq9"]], s).unemployment["eq9"]
        assert path.values[0] == pytest.approx(0.049424, abs=1e-9)


class TestAffinity:
    def test_affine_in_growth(self):
        # geometric-mean path has exactly the average growth of the two inputs
        a = linear_lf(start=67_000_000.0, end=57_000_000.0)
        b = linear_lf(start=67_000_000.0, end=64_000_000.0)
        gm = AnnualSeries(
            a.start_year,
            tuple(math.sqrt(x * y) for x, y in zip(a.values, b.values)),
            units="persons",
        )
        horizon = (2011, 2050)
        fa, fb, fm = (forecast_report([MODEL_REGISTRY["eq8"]],
                                      build_scenario(lf, horizon)).inflation["eq8"]
                      for lf in (a, b, gm))
        avg = [(x + y) / 2 for x, y in zip(fa.values, fb.values)]
        assert list(fm.values) == pytest.approx(avg, abs=1e-12)


class TestReport:
    def test_empty_models_rejected(self, decline):
        with pytest.raises(InputError):
            forecast_report([], decline)

    def test_single_inflation_model(self, decline):
        report = forecast_report([MODEL_REGISTRY["eq8"]], decline)
        assert list(report.inflation) == ["eq8"]
        assert not report.unemployment

    def test_composition_matches_components(self, decline):
        report = forecast_report(
            [MODEL_REGISTRY["eq8"], MODEL_REGISTRY["eq9"]], decline
        )
        alone = {m: forecast_report([MODEL_REGISTRY[m]], decline) for m in ("eq8", "eq9")}
        assert report.inflation["eq8"] == alone["eq8"].inflation["eq8"]
        assert report.unemployment["eq9"] == alone["eq9"].unemployment["eq9"]

    def test_deterministic(self, decline):
        models = [MODEL_REGISTRY["eq8"], MODEL_REGISTRY["eq9"]]
        r1 = forecast_report(models, decline)
        r2 = forecast_report(models, decline)
        assert report_to_csv(r1) == report_to_csv(r2)
        assert report_to_json(r1) == report_to_json(r2)

    def test_csv_shape(self, decline):
        report = forecast_report([MODEL_REGISTRY["eq8"], MODEL_REGISTRY["eq9"]], decline)
        lines = report_to_csv(report).strip().split("\n")
        assert lines[0] == "year,inflation[eq8],unemployment[eq9]"
        assert len(lines) == 1 + (2050 - 2011 + 1)

    def test_json_parses(self, decline):
        report = forecast_report([MODEL_REGISTRY["eq8"]], decline)
        doc = json.loads(report_to_json(report))
        assert doc["horizon"] == [2011, 2050]
        assert "inflation[eq8]" in doc["paths"]


class TestLoadScenario:
    def test_linear_form(self, tmp_path):
        doc = {"horizon": [2011, 2050],
               "linear": {"start_year": 2010, "end_year": 2050,
                          "start": 67_000_000, "end": 57_000_000}}
        p = tmp_path / "s.json"
        p.write_text(json.dumps(doc))
        s = load_scenario(p)
        assert s.labor_force.value(2010) == 67_000_000.0
        assert s.labor_force.value(2050) == 57_000_000.0

    def test_csv_form(self, tmp_path):
        csv = "year,value\n" + "\n".join(f"{2009 + i},{1000 - i}" for i in range(10))
        (tmp_path / "lf.csv").write_text(csv + "\n")
        doc = {"horizon": [2010, 2018], "labor_force_csv": "lf.csv", "units": "thousands"}
        p = tmp_path / "s.json"
        p.write_text(json.dumps(doc))
        s = load_scenario(p)
        assert s.labor_force.value(2009) == 1_000_000.0

    def test_population_form(self, tmp_path):
        csv = "year,value\n" + "\n".join(f"{2009 + i},{128600}" for i in range(5))
        (tmp_path / "pop.csv").write_text(csv + "\n")
        doc = {"horizon": [2010, 2013], "population_csv": "pop.csv",
               "units": "thousands", "participation": 0.521}
        p = tmp_path / "s.json"
        p.write_text(json.dumps(doc))
        s = load_scenario(p)
        assert s.labor_force.value(2010) == pytest.approx(128_600_000 * 0.521)

    def test_integral_float_years(self, tmp_path):
        doc = {"horizon": [2011, 2050],
               "linear": {"start_year": 2010, "end_year": 2050,
                          "start": 67_000_000, "end": 57_000_000}}
        p = tmp_path / "s.json"
        p.write_text(json.dumps(doc))
        q = tmp_path / "f.json"
        q.write_text(json.dumps({"horizon": [2011.0, 2050.0],
                                 "linear": {**doc["linear"], "start_year": 2010.0,
                                            "end_year": 2050.0}}))
        assert load_scenario(q) == load_scenario(p)

    @pytest.mark.parametrize("start, end, message", [
        ("NaN", "5.7e7", "scenario 'linear.start' must be a finite number, got nan"),
        ("6.7e7", "Infinity", "scenario 'linear.end' must be a finite number, got inf"),
        ("-Infinity", "5.7e7", "scenario 'linear.start' must be a finite number, got -inf"),
        ("1e999", "5.7e7", "scenario 'linear.start' must be a finite number, got inf"),
        # each end is finite, but the path between them is not
        ("1e308", "-1e308", "scenario linear path from 'linear.start' 1e+308 "
                            "to 'linear.end' -1e+308 overflows a float"),
    ])
    def test_non_finite_linear_path(self, tmp_path, start, end, message):
        p = tmp_path / "s.json"
        p.write_text('{"horizon": [2011, 2050], "linear": {"start_year": 2010, '
                     f'"end_year": 2050, "start": {start}, "end": {end}}}}}')
        with pytest.raises(InputError) as info:
            load_scenario(p)
        assert str(info.value) == message

    @pytest.mark.parametrize("rate", ["NaN", "Infinity"])
    def test_non_finite_participation(self, tmp_path, rate):
        (tmp_path / "pop.csv").write_text("year,value\n2010,128600\n2011,128500\n")
        p = tmp_path / "s.json"
        p.write_text('{"horizon": [2011, 2011], "population_csv": "pop.csv", '
                     f'"units": "thousands", "participation": {rate}}}')
        with pytest.raises(InputError, match="^scenario 'participation' must be a finite "
                                             "number, got (nan|inf)$"):
            load_scenario(p)

    def test_largest_finite_path_loads(self, tmp_path):
        p = tmp_path / "s.json"
        p.write_text(json.dumps({"horizon": [2011, 2012], "linear": {
            "start_year": 2010, "end_year": 2012, "start": 1e308, "end": 1.5e308}}))
        assert load_scenario(p).labor_force.values == (1e308, 1.25e308, 1.5e308)

    def test_missing_source(self, tmp_path):
        p = tmp_path / "s.json"
        p.write_text(json.dumps({"horizon": [2010, 2020]}))
        with pytest.raises(InputError):
            load_scenario(p)
