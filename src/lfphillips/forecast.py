"""Labor-force scenarios and long-horizon inflation/unemployment paths.

The registry freezes the printed Japan models as constants, kept separate
from anything refitted on data, so "reproduce the published numbers" and
"refit on current data" stay distinguishable. The causal chain runs one way:
labor force drives inflation and unemployment, with no feedback.
``forecast_report`` is the one way a registry model is evaluated, and
``load_scenario`` refuses a scenario key it does not know. The scenario JSON
is read and checked, and every report is written, through ``ingest``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from . import ingest
from .errors import InputError
from .series import AnnualSeries, log_growth


@dataclass(frozen=True)
class Scenario:
    """A labor-force projection and the horizon to forecast over."""

    labor_force: AnnualSeries
    growth: AnnualSeries
    horizon: tuple[int, int]


def build_scenario(labor_force: AnnualSeries, horizon: tuple[int, int]) -> Scenario:
    """The scenario of a labor-force path, in persons, over ``horizon``.

    The path must cover the horizon plus the preceding year, since growth at
    the first horizon year is a backward log-difference. A population path
    becomes a labor-force path through ``ingest.participation_labor_force``
    first, as ``load_scenario`` does.
    """
    horizon = ingest.json_span("horizon", horizon)
    if labor_force.start_year > horizon[0] - 1 or labor_force.end_year < horizon[1]:
        raise InputError(
            f"labor-force path {labor_force.start_year}..{labor_force.end_year} must cover "
            f"{horizon[0] - 1}..{horizon[1]}"
        )
    growth = log_growth(labor_force)
    return Scenario(labor_force=labor_force, growth=growth, horizon=horizon)


@dataclass(frozen=True)
class ModelRegistryEntry:
    """One frozen published model, segment coefficients keyed by year range.

    ``segments`` maps (first_year, last_year) -> {"intercept", "l", "u", "pi"}
    coefficient dicts; open ends use None.
    """

    identifier: str
    response: str  # "cpi-inflation" | "dgdp-inflation" | "unemployment"
    segments: tuple[tuple[tuple[int | None, int | None], dict[str, float]], ...]

    def coefficients_for(self, year: int) -> dict[str, float]:
        for (first, last), coeff in self.segments:
            if (first is None or year >= first) and (last is None or year <= last):
                return coeff
        raise InputError(f"model {self.identifier} has no segment for year {year}")


# Printed Japan models, fractions throughout.
MODEL_REGISTRY: dict[str, ModelRegistryEntry] = {
    # unemployment on contemporaneous CPI inflation, post-1981
    "eq6": ModelRegistryEntry(
        identifier="eq6",
        response="unemployment",
        segments=((((None, None)), {"intercept": 0.044, "pi": -1.10}),),
    ),
    # CPI inflation on labor-force growth, zero lag
    "eq7": ModelRegistryEntry(
        identifier="eq7",
        response="cpi-inflation",
        segments=((((None, None)), {"intercept": 0.0007, "l": 1.31}),),
    ),
    # GDP-deflator inflation on labor-force growth, zero lag
    "eq8": ModelRegistryEntry(
        identifier="eq8",
        response="dgdp-inflation",
        segments=((((None, None)), {"intercept": -0.0084, "l": 1.90}),),
    ),
    # unemployment on labor-force growth with the 1977 break, shared intercept
    "eq9": ModelRegistryEntry(
        identifier="eq9",
        response="unemployment",
        segments=(
            ((None, 1976), {"intercept": 0.0432, "l": -0.179}),
            ((1977, None), {"intercept": 0.0432, "l": -1.556}),
        ),
    ),
    # generalized inflation model on growth and unemployment, 1982 break
    "eq10": ModelRegistryEntry(
        identifier="eq10",
        response="dgdp-inflation",
        segments=(
            ((None, 1981), {"intercept": 0.161, "l": -10.0, "u": 0.9}),
            ((1982, None), {"intercept": -0.0392, "l": 2.80, "u": 0.9}),
        ),
    ),
}


def _evaluate(model: ModelRegistryEntry, scenario: Scenario,
              unemployment: AnnualSeries | None) -> AnnualSeries:
    first, last = scenario.horizon
    values = []
    for year in range(first, last + 1):
        coeff = model.coefficients_for(year)
        total = coeff.get("intercept", 0.0)
        if "l" in coeff:
            total += coeff["l"] * scenario.growth.value(year)
        if "u" in coeff:
            if unemployment is None:
                raise InputError(
                    f"model {model.identifier} needs a companion unemployment path"
                )
            total += coeff["u"] * unemployment.value(year)
        if "pi" in coeff:
            raise InputError(
                f"model {model.identifier} is inflation-driven; it cannot run from a "
                "labor-force scenario alone"
            )
        values.append(total)
    return AnnualSeries(first, tuple(values), label=model.identifier,
                        units=ingest.KIND_UNITS[model.response])


@dataclass(frozen=True)
class ForecastResult:
    scenario: Scenario
    inflation: dict[str, AnnualSeries]
    unemployment: dict[str, AnnualSeries]

    def all_paths(self) -> dict[str, AnnualSeries]:
        out = {f"inflation[{k}]": v for k, v in self.inflation.items()}
        out.update({f"unemployment[{k}]": v for k, v in self.unemployment.items()})
        return out


def forecast_report(
    models: Sequence[ModelRegistryEntry],
    scenario: Scenario,
) -> ForecastResult:
    """Run every model against the scenario and bundle the paths.

    Unemployment models run first so that generalized inflation models can
    consume the resulting path; with several unemployment models the first
    one listed feeds the inflation side.
    """
    if not models:
        raise InputError("no models given")
    unemployment: dict[str, AnnualSeries] = {}
    for m in models:
        if m.response == "unemployment":
            unemployment[m.identifier] = _evaluate(m, scenario, None)
    companion = next(iter(unemployment.values()), None)
    inflation: dict[str, AnnualSeries] = {}
    for m in models:
        if m.response != "unemployment":
            inflation[m.identifier] = _evaluate(m, scenario, companion)
    return ForecastResult(scenario=scenario, inflation=inflation, unemployment=unemployment)


def report_to_csv(report: ForecastResult) -> str:
    """One row per horizon year; columns are the model paths, fractions."""
    paths = report.all_paths()
    names = sorted(paths)
    first, last = report.scenario.horizon
    rows = ((year, *(paths[n].value(year) for n in names)) for year in range(first, last + 1))
    return ingest.csv_text(("year", *names), rows)


def report_to_json(report: ForecastResult) -> str:
    paths = report.all_paths()
    doc = {
        "horizon": list(report.scenario.horizon),
        "labor_force": {
            "start_year": report.scenario.labor_force.start_year,
            "values": list(report.scenario.labor_force.values),
        },
        "paths": {
            name: {"start_year": s.start_year, "units": s.units, "values": list(s.values)}
            for name, s in sorted(paths.items())
        },
    }
    return ingest.json_text(doc)


def scenario_to_csv(scenario: Scenario) -> str:
    lf, g = scenario.labor_force, scenario.growth
    rows = ((year, lf.value(year), g.value(year) if g.start_year <= year <= g.end_year else "")
            for year in lf.years)
    return ingest.csv_text(("year", "labor_force", "growth"), rows)


# each scenario source and the other keys it reads; a linear path is in persons
_SOURCE_KEYS = {
    "labor_force_csv": ("units",),
    "population_csv": ("units", "participation"),
    "linear": (),
}


def load_scenario(path) -> Scenario:
    """Read a scenario description from JSON.

    Schema: {"horizon": [y1, y2], "labor_force_csv": "...", "units": "..."} or
    {"horizon": ..., "population_csv": "...", "units": ..., "participation": r} or
    {"horizon": ..., "linear": {"start_year": y, "end_year": y, "start": v, "end": v}}.
    Exactly one source is named; years are integers (an integral float such
    as 2011.0 converts). A key outside the schema, or one that the named
    source would ignore, raises InputError naming it. ``ingest`` reads the
    file and checks each field's type.
    """
    p = Path(path)
    doc = ingest.read_json(p, "scenario")
    if not isinstance(doc, dict):
        raise InputError(f"scenario {p}: expected an object with a 'horizon' key")
    sources = [key for key in _SOURCE_KEYS if key in doc]
    if len(sources) != 1:
        raise InputError("scenario needs exactly one of 'labor_force_csv', 'population_csv' "
                         f"or 'linear', got {sources}")
    source = sources[0]
    ingest.json_object(f"scenario of a {source!r} source", doc,
                       ("horizon", source) + _SOURCE_KEYS[source],
                       ("participation",) if source == "population_csv" else ())
    horizon = ingest.json_span("scenario 'horizon'", doc.get("horizon"))
    if source != "linear":
        what = f"scenario {source!r}"
        kind = "labor-force" if source == "labor_force_csv" else "population"
        entry = ingest.ManifestEntry(kind, doc.get("units", "persons"),
                                     path=ingest.json_path(what, doc[source], p))
        lf = ingest.read_entry(what, entry, label=kind.replace("-", " "))
        if source == "population_csv":
            rate = ingest.json_float("scenario 'participation'", doc["participation"])
            lf = ingest.participation_labor_force(lf, rate)
        return build_scenario(labor_force=lf, horizon=horizon)
    keys = ("start_year", "end_year", "start", "end")
    lin = ingest.json_object("scenario", doc["linear"], keys, keys, "linear.")
    y0, y1 = (ingest.json_int(f"scenario 'linear.{k}'", lin[k]) for k in keys[:2])
    v0, v1 = (ingest.json_float(f"scenario 'linear.{k}'", lin[k]) for k in keys[2:])
    if y1 <= y0:
        raise InputError("linear path needs end_year > start_year")
    n = y1 - y0
    values = tuple(v0 + (v1 - v0) * i / n for i in range(n + 1))
    if not all(map(math.isfinite, values)):
        raise InputError(f"scenario linear path from 'linear.start' {v0!r} "
                         f"to 'linear.end' {v1!r} overflows a float")
    lf = AnnualSeries(y0, values, label="labor force", units="persons")
    return build_scenario(labor_force=lf, horizon=horizon)
