"""The four benchmark workloads.

Each ``prepare_*`` function builds, from the seed, one cycle of operations:
the call that is timed and the check of its output, which runs outside the
timed region against references computed here. All four are closed loops
with one client.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import runpy
import shutil
import subprocess
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from lfphillips import cli, diagnose, estimate, forecast, ingest, svg
from lfphillips.errors import EstimationError, InputError
from lfphillips.estimate import LinkSpec, Predictor

import checks
import inputs
from checks import require

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "data" / "japan"
MANIFEST = DATA / "manifest.json"
SCENARIO = DATA / "scenario_2005.json"
REPRODUCE = ROOT / "scripts" / "reproduce_japan.py"
POST_BREAK = (1982, 2012)
FORECAST_MODELS = ("eq7", "eq8", "eq9", "eq10")


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], None]


@dataclass
class Prepared:
    ops: list[Op]           # one cycle, timed with tracing off
    traced_ops: list[Op]    # one cycle for the traced run
    rss_from_children: bool = False


def _japan():
    return ingest.load_all(ingest.load_manifest(MANIFEST))


def child_env() -> dict[str, str]:
    """Environment for CLI subprocesses: the package runs from ``src``."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


# ---------------------------------------------------------------- japan-cli

CLI_COMMANDS = {
    "fit": ["--window", "1982:2012", "fit", "--response", "cpi", "--predictor", "unemployment"],
    "scan-lag": ["--window", "1982:2012", "scan-lag", "--response", "cpi",
                 "--predictor", "labor_force_growth", "--estimator", "cumulative"],
    "scan-break": ["scan-break", "--response", "cpi", "--predictor", "unemployment",
                   "--estimator", "cumulative", "--years", "1975:1994"],
    "diagnose": ["diagnose", "--response", "unemployment", "--predictor", "labor_force_growth",
                 "--estimator", "cumulative", "--break-year", "1977", "--share", "intercept",
                 "--adf-lags", "1"],
    "forecast": ["--format", "csv,json,svg", "forecast", "--scenario", str(SCENARIO),
                 "--models", ",".join(FORECAST_MODELS)],
    "plot": ["plot", "--series", "unemployment,cpi", "--mode", "scatter", "--regression"],
    "reproduce_japan.py": None,
}


def _cli_argv(command: str, out: Path) -> list[str]:
    return ["--manifest", str(MANIFEST), "--out", str(out)] + CLI_COMMANDS[command]


def _in_process(command: str, out: Path) -> tuple[int, str, Path]:
    """Run one command inside this interpreter, as ``cli.main`` or the script."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        if CLI_COMMANDS[command] is not None:
            rc = cli.main(_cli_argv(command, out))
        else:
            saved, sys.argv = sys.argv, [str(REPRODUCE), "--out", str(out)]
            try:
                runpy.run_path(str(REPRODUCE), run_name="__main__")
                rc = 0
            except SystemExit as exc:
                rc = exc.code
            finally:
                sys.argv = saved
    return rc, stdout.getvalue(), out


def _subprocess(command: str, out: Path, env: dict) -> tuple[int, str, Path]:
    if CLI_COMMANDS[command] is not None:
        cmd = [sys.executable, "-m", "lfphillips.cli"] + _cli_argv(command, out)
    else:
        cmd = [sys.executable, str(REPRODUCE), "--out", str(out)]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout, out


def _artifacts(rc: int, stdout: str, out: Path) -> tuple[int, str, dict[str, bytes]]:
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.is_dir() else {}
    return rc, stdout.replace(str(out), "<out>"), files


def _api_results(data) -> dict[str, object]:
    """What ``fit.json`` and ``report.csv`` must hold, computed through the API."""
    spec = LinkSpec("cpi", (Predictor("unemployment"),), window=POST_BREAK)
    coefficients = estimate.fit(spec, data).coefficient_table()
    y, u = data["cpi"].window(*POST_BREAK), data["unemployment"].window(*POST_BREAK)
    b = checks.ols_reference(y.values, [u.values])
    checks.require_close(coefficients, {"intercept": b[0], "unemployment": b[1]},
                         checks.OLS_RTOL, "fit vs brute-force OLS")
    models = [forecast.MODEL_REGISTRY[m] for m in FORECAST_MODELS]
    report = forecast.forecast_report(models, forecast.load_scenario(SCENARIO))
    return {"coefficients": coefficients, "report.csv": forecast.report_to_csv(report)}


def _japan_check(command: str, want, api) -> Callable[[object], None]:
    def check(output) -> None:
        rc, stdout, files = _artifacts(*output)
        shutil.rmtree(output[2], ignore_errors=True)
        require(rc == 0, f"{command}: exit code {rc}")
        if command == "fit":
            doc = json.loads(files["fit.json"])
            require(doc["coefficients"] == api["coefficients"], "fit.json coefficients differ")
        if command == "forecast":
            require(files["report.csv"].decode("utf-8") == api["report.csv"],
                    "report.csv differs from the in-process forecast")
        require(stdout == want[1], f"{command}: stdout differs from the in-process run")
        require(files == want[2], f"{command}: artifacts differ from the in-process run")

    return check


def prepare_japan_cli(seed: int, workdir: Path) -> Prepared:
    """One op is one fresh interpreter running a CLI command or the script."""
    api = _api_results(_japan())
    env = child_env()
    fresh = (workdir / f"out{i}" for i in itertools.count())
    order = list(CLI_COMMANDS)
    np.random.Generator(np.random.PCG64(seed)).shuffle(order)
    ops, traced = [], []
    for command in order:
        out = next(fresh)
        reference = _artifacts(*_in_process(command, out))
        shutil.rmtree(out, ignore_errors=True)
        require(reference[0] == 0, f"{command}: in-process reference run failed")
        check = _japan_check(command, reference, api)
        ops.append(Op(command, lambda c=command: _subprocess(c, next(fresh), env), check))
        traced.append(Op(command, lambda c=command: _in_process(c, next(fresh)), check))
    return Prepared(ops, traced, rss_from_children=True)


# --------------------------------------------------------------- scan-sweep

JAPAN_BREAK_YEARS = range(1975, 1995)
LAGS = range(-5, 6)


def _scan_jobs(seed: int):
    """(kind, spec, data, candidates) for every scan of one cycle."""
    data = _japan()
    jobs = []
    for response in ("cpi", "dgdp", "unemployment"):
        for predictor in ("unemployment", "labor_force_growth"):
            if predictor == response:
                continue
            for estimator in ("ols", "cumulative"):
                base = LinkSpec(response, (Predictor(predictor),), estimator=estimator)
                jobs.append(("break", base, data, JAPAN_BREAK_YEARS))
                jobs.append(("break", replace(base, shared=("intercept",)), data,
                             JAPAN_BREAK_YEARS))
                jobs.append(("lag", replace(base, window=POST_BREAK), data, LAGS))
    for ds in inputs.scan_datasets(seed):
        # every year that can start a second segment, so the edges fail the
        # 5-observation floor
        years = range(ds.single["y"].start_year + 1, ds.single["y"].end_year + 1)
        single = LinkSpec("y", (Predictor("x"),))
        pair = LinkSpec("y", (Predictor("xa"), Predictor("xb")), estimator="cumulative")
        jobs.append(("break", single, ds.single, years))
        jobs.append(("break", replace(single, estimator="cumulative"), ds.single, years))
        jobs.append(("lag", pair, ds.pair, LAGS))
        jobs.append(("break", replace(pair, shared=("intercept",)), ds.pair, years))
    return jobs


def _direct_sse(spec: LinkSpec, data) -> float | None:
    """The objective SSE of one fit, or None when the fit is illegal."""
    try:
        return estimate.fit(spec, data).objective_sse
    except (InputError, EstimationError):
        return None


def prepare_scan_sweep(seed: int, workdir: Path) -> Prepared:
    """One op is one exhaustive ``scan_break`` or ``scan_lag``."""
    ops = []
    for i, (kind, spec, data, candidates) in enumerate(_scan_jobs(seed)):
        chosen = inputs.pick(seed, 100 + i, candidates)
        label = f"{kind}:{spec.response}~{'+'.join(p.name for p in spec.predictors)}"
        if kind == "break":
            want = _direct_sse(replace(spec, break_year=chosen), data)
            run = (lambda s=spec, d=data, c=candidates: estimate.scan_break(s, d, c))
            check = (lambda out, c=candidates, y=chosen, w=want:
                     checks.check_break_scan(out[0], out[1], c, y, w))
        else:
            name = spec.predictors[0].name
            want = _direct_sse(spec.with_lag(name, chosen), data)
            criterion = "r2_cumulative" if spec.estimator == "cumulative" else "r2_annual"
            run = (lambda s=spec, d=data, c=candidates: estimate.scan_lag(s, d, lag_range=c))
            check = (lambda out, c=candidates, k=criterion, y=chosen, w=want:
                     checks.check_lag_scan(out[0], out[1], c, k, y, w))
        ops.append(Op(label, run, check))
    return Prepared(ops, ops)


# -------------------------------------------------------------- long-series

ADF_LAGS = 4


def _long_check(want: dict[str, float], rtol: float, y, cumulative: bool):
    y = np.asarray(y.values)
    tolerance = 1e-9 * float(np.abs(y).sum())

    def check(output) -> None:
        result, adf = output
        checks.require_close(result.coefficient_table(), want, rtol, "coefficients")
        if cumulative:
            total = float(np.sum(result.residuals.values))
            require(abs(total) <= tolerance, f"annual residuals sum to {total!r}, not ~0")
        require(checks.finite(adf.statistic), "ADF statistic is not finite")
        require(adf.n_obs == len(y) - 1 - ADF_LAGS, f"ADF used {adf.n_obs} observations")

    return check


def _fit_and_adf(spec: LinkSpec, data):
    result = estimate.fit(spec, data)
    return result, diagnose.adf_test(result.residuals, lag_order=ADF_LAGS)


def prepare_long_series(seed: int, workdir: Path) -> Prepared:
    """One op is one n=4000 fit followed by ``adf_test(residuals, lag_order=4)``."""
    ls = inputs.long_series(seed)
    ols = LinkSpec("y", (Predictor("x"),))
    cumulative = replace(ols, estimator="cumulative")
    broken = replace(cumulative, break_year=ls.break_year, shared=("intercept",))

    x, y = ls.ols["x"].values, ls.ols["y"].values
    b = checks.ols_reference(y, [x])
    ops = [Op("ols", lambda: _fit_and_adf(ols, ls.ols),
              _long_check({"intercept": b[0], "x": b[1]}, checks.OLS_RTOL, ls.ols["y"], False))]

    x, y = ls.cumulative["x"].values, ls.cumulative["y"].values
    a, b = checks.closed_form_cumulative(y, [x])
    ops.append(Op("cumulative", lambda: _fit_and_adf(cumulative, ls.cumulative),
                  _long_check({"intercept": a, "x": b[0]}, checks.CUMULATIVE_RTOL,
                              ls.cumulative["y"], True)))

    x, y = np.asarray(ls.broken["x"].values), ls.broken["y"].values
    post = np.asarray(ls.broken["y"].years) >= ls.break_year
    a, b = checks.closed_form_cumulative(y, [np.where(post, 0.0, x), np.where(post, x, 0.0)])
    ops.append(Op("cumulative-break", lambda: _fit_and_adf(broken, ls.broken),
                  _long_check({"intercept": a, "x[pre]": b[0], "x[post]": b[1]},
                              checks.CUMULATIVE_RTOL, ls.broken["y"], True)))
    return Prepared(ops, ops)


# ----------------------------------------------------------- scenario-sweep

def _forecast(path: Path, models):
    """What ``cmd_forecast`` does for one scenario, kept in memory."""
    scenario = forecast.load_scenario(path)
    report = forecast.forecast_report(models, scenario)
    texts = (forecast.report_to_csv(report), forecast.report_to_json(report),
             forecast.scenario_to_csv(scenario))
    style = svg.ChartStyle(title="forecast", y_label="rate", percent_axis=True)
    charts = [svg.line_chart([s.relabel(k) for k, s in group], style=style)
              for group in (list(report.inflation.items()), list(report.unemployment.items()))
              if group]
    return report, texts, charts


def _forecast_check(want: dict[str, np.ndarray], n_levels: int):
    def check(output) -> None:
        report, (csv_text, json_text, scenario_csv), charts = output
        checks.require_paths({k: s.values for k, s in report.all_paths().items()}, want,
                             "report")
        doc = json.loads(json_text)
        checks.require_paths({k: p["values"] for k, p in doc["paths"].items()}, want,
                             "report.json")
        header, *rows = csv_text.splitlines()
        names = header.split(",")[1:]
        columns = zip(*[[float(v) for v in row.split(",")[1:]] for row in rows])
        checks.require_paths(dict(zip(names, columns)), want, "report.csv")
        require(len(scenario_csv.splitlines()) == n_levels + 1, "scenario.csv row count")
        lines = [sum(1 for k in want if k.startswith(tag)) for tag in ("inflation", "unemp")]
        require([c.count("<polyline") for c in charts] == lines, "chart series count")
        require(all(c.startswith("<svg") and c.endswith("</svg>\n") for c in charts),
                "chart is not a complete SVG document")

    return check


def prepare_scenario_sweep(seed: int, workdir: Path) -> Prepared:
    """One op loads one seeded scenario and runs eq7-eq10, the serializers
    and both charts on it."""
    models = [forecast.MODEL_REGISTRY[m] for m in FORECAST_MODELS]
    ops = []
    for i, sc in enumerate(inputs.scenarios(seed)):
        path = workdir / f"scenario_{i:02d}.json"
        path.write_text(json.dumps(sc.document), encoding="utf-8")
        if sc.csv_name:
            (workdir / sc.csv_name).write_text(sc.csv_text, encoding="utf-8")
        want = checks.direct_forecast(models, sc.labor_force, inputs.SCENARIO_BASE_YEAR,
                                      inputs.SCENARIO_HORIZON)
        ops.append(Op(path.stem, lambda p=path: _forecast(p, models),
                      _forecast_check(want, len(sc.labor_force))))
    return Prepared(ops, ops)


WORKLOADS = {
    "japan-cli": prepare_japan_cli,
    "scan-sweep": prepare_scan_sweep,
    "long-series": prepare_long_series,
    "scenario-sweep": prepare_scenario_sweep,
}
