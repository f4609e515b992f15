"""Command-line front end.

Subcommands: fit, scan-lag, scan-break, diagnose, forecast, plot, fetch.
Each ``cmd_*`` returns its artifacts (file name to text) and its summary line;
``main`` alone creates --out, writes them with ``ingest.write_atomic`` once all
are built and prints the line, so a failed command writes nothing and creates
no --out. Inputs are never mutated. Exit codes: 0 success, 1 data/model
error, 2 usage error. A global flag that the subcommand does not read is a
usage error, not ignored, and so is an inline spec flag given with --spec and
an empty --out, --format, --cache-dir or --name, which would otherwise read as
absent. A data command checks the whole --manifest but reads only the series
it names. This module imports only ``ingest`` and ``errors``; each command
imports the modules that it runs (``estimate`` with ``diagnose``, ``forecast``,
``svg``) itself.

Model specs can be given as a JSON file (--spec, the canonical form, read
by ``LinkSpec.from_dict`` and echoed into outputs by ``LinkSpec.to_dict``) or
assembled from inline flags; --window overrides either's window. All stored
values are fractions; percent shows up only in chart labels.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict, replace
from pathlib import Path

from . import ingest
from .errors import LfphillipsError, InputError

# estimate, diagnose, forecast and svg are imported by the commands that run
# them: each module costs start-up time (compiled when no bytecode is cached,
# its dataclasses built), so a forecast loads no solver and a fit no chart code


class UsageError(LfphillipsError):
    """Command invoked with missing or malformed flags (exit code 2)."""


# the subcommands that read each global flag; any other refuses it rather
# than run without it (forecast takes --manifest, which it does not read)
_FLAG_READERS = {
    "--format": ("forecast",),
    "--window": ("fit", "scan-lag", "scan-break", "diagnose", "plot"),
    "--cache-dir": ("fit", "scan-lag", "scan-break", "diagnose", "plot", "fetch"),
    "--out": ("fit", "scan-lag", "scan-break", "diagnose", "forecast", "plot"),
}

# the inline spec flags, which --spec replaces rather than amends
_SPEC_FLAGS = ("--response", "--predictor", "--estimator", "--break-year", "--share")

# the flags whose empty value would read as absent and so mean the default
_NONEMPTY_FLAGS = ("--out", "--format", "--cache-dir", "--name")


def _value(args, flag: str):
    """The value of ``flag``; None when it is not given or not a flag of the subcommand."""
    return getattr(args, flag[2:].replace("-", "_"), None)


def _given(args, flag: str) -> bool:
    return _value(args, flag) is not None


def _check_flags(args) -> None:
    for flag, readers in _FLAG_READERS.items():
        if _given(args, flag) and args.command not in readers:
            raise UsageError(f"{flag} has no effect on {args.command}; "
                             f"it is read by {', '.join(readers)}")
    for flag in _NONEMPTY_FLAGS:
        if _value(args, flag) == "":
            raise UsageError(f"{flag} must not be empty")


def _span(what: str, text: str) -> tuple[int, int]:
    """An ``A:B`` flag value as ``ingest.json_span`` checks it; a non-integer part goes as text."""
    parts = text.split(":")
    years = [int(p) if p.strip().removeprefix("-").isdecimal() else p for p in parts]
    return ingest.json_span(what, years if len(parts) == 2 else text)


def _overlap(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """The years that two spans share; first > last when they share none."""
    return max(a[0], b[0]), min(a[1], b[1])


def _names(text: str) -> list[str]:
    """The names of a comma-separated flag value, stripped."""
    return [name.strip() for name in text.split(",")]


def _manifest(args) -> dict[str, ingest.ManifestEntry]:
    if not args.manifest:
        raise UsageError("--manifest is required for this command")
    return ingest.load_manifest(args.manifest, cache=args.cache_dir)


def _spec_and_data(args) -> tuple:
    """The ``estimate.LinkSpec`` of --spec or the inline flags, and the series
    that it names; the whole manifest is checked first."""
    from . import estimate

    if args.spec:
        for flag in _SPEC_FLAGS:
            if _given(args, flag):
                raise UsageError(f"{flag} has no effect with --spec; set it in the spec file")
    manifest = _manifest(args)
    if args.spec:
        spec = estimate.LinkSpec.from_dict(ingest.read_json(args.spec, "spec"))
    else:
        if not args.response or not args.predictor:
            raise UsageError("give --spec FILE, or --response with at least one --predictor")
        predictors = []
        for p in args.predictor:
            name, _, lag = p.partition(":")
            try:
                lag = int(lag) if lag else 0
            except ValueError as exc:
                raise InputError(f"--predictor {p!r}: lag {lag!r} is not an integer") from exc
            predictors.append(estimate.Predictor(name, lag))
        spec = estimate.LinkSpec(
            response=args.response,
            predictors=tuple(predictors),
            estimator=args.estimator or "ols",
            break_year=args.break_year,
            shared=tuple(args.share or ()),
        )
    if args.window is not None:
        spec = replace(spec, window=_span("window", args.window))
    names = [spec.response, *(p.name for p in spec.predictors)]
    return spec, ingest.load_all(ingest.entries_for(manifest, names))


def _fit_document(result) -> dict:
    """The JSON document of an ``estimate.FitResult``."""
    return {
        "spec": result.spec.to_dict(),
        "window": list(result.window),
        "segments": [asdict(seg) for seg in result.segments],
        "coefficients": result.coefficient_table(),
        "stderr": result.stderr,
        "pvalues": result.pvalues,
        "r2_annual": result.r2_annual,
        "r2_cumulative": result.r2_cumulative,
        "sigma": result.sigma,
        "sse_annual": result.sse_annual,
        "sse_cumulative": result.sse_cumulative,
    }


def cmd_fit(args) -> tuple[dict[str, str], str]:
    from . import estimate

    spec, data = _spec_and_data(args)
    result = estimate.fit(spec, data)
    return ({"fit.json": ingest.json_text(_fit_document(result)),
             "residuals.csv": ingest.series_csv(result.residuals)},
            f"fit written to {args.out / 'fit.json'}")


def cmd_scan_lag(args) -> tuple[dict[str, str], str]:
    from . import estimate

    spec, data = _spec_and_data(args)
    lags, y = _span("lag range", args.lags), data.get(spec.response)
    x = data.get(spec.predictors[0].name)
    # any other lag leaves the response and the scanned predictor no common year;
    # with either series missing, scan_lag refuses before it reads a lag
    first, last = (_overlap(lags, (y.start_year - x.end_year, y.end_year - x.start_year))
                   if y and x else (0, -1))
    results, best = estimate.scan_lag(spec, data, lag_range=range(first, last + 1))
    rows = ((lag, res.r2_annual, res.r2_cumulative, res.objective_sse, "*" if lag == best else "")
            for lag, res in results)
    return ({"scan_lag.csv": ingest.csv_text(
        ("lag", "r2_annual", "r2_cumulative", "sse", "best"), rows)}, f"best lag: {best}")


def cmd_scan_break(args) -> tuple[dict[str, str], str]:
    from . import estimate

    spec, data = _spec_and_data(args)
    years, y = _span("break-year range", args.years), data.get(spec.response)
    # a break must fall inside the response's years; without a response the
    # scan fails before it reads a candidate
    first, last = _overlap(years, (y.start_year, y.end_year)) if y else (0, -1)
    profile, best = estimate.scan_break(spec, data, candidate_years=range(first, last + 1))
    rows = ((year, sse, "*" if year == best else "") for year, sse in profile)
    return ({"scan_break.csv": ingest.csv_text(("year", "sse", "best"), rows)},
            f"best break year: {best}")


def cmd_diagnose(args) -> tuple[dict[str, str], str]:
    from . import diagnose, estimate

    spec, data = _spec_and_data(args)
    result = estimate.fit(spec, data)
    adf = diagnose.adf_test(result.residuals, lag_order=args.adf_lags)
    doc = _fit_document(result)
    doc["adf"] = {
        "statistic": adf.statistic,
        "lag_order": adf.lag_order,
        "n_obs": adf.n_obs,
        "critical_values": {str(k): v for k, v in adf.critical_values.items()},
        "rejects_unit_root": {str(k): v for k, v in adf.rejects.items()},
    }
    return ({"diagnose.json": ingest.json_text(doc)},
            f"ADF statistic {adf.statistic:.3f}; "
            f"unit root rejected at 5%: {adf.rejects_unit_root(0.05)}")


def cmd_forecast(args) -> tuple[dict[str, str], str]:
    from . import forecast, svg

    formats = set(_names("csv,json" if args.format is None else args.format))
    unknown = sorted(formats - {"csv", "json", "svg"})
    if unknown:
        raise UsageError(f"unknown --format {unknown[0]!r}; use csv, json or svg")
    scenario = forecast.load_scenario(args.scenario)
    names = _names(args.models)
    unknown = [name for name in names if name not in forecast.MODEL_REGISTRY]
    if unknown:
        raise InputError(f"unknown model {unknown[0]!r}; "
                         f"registry has {sorted(forecast.MODEL_REGISTRY)}")
    report = forecast.forecast_report([forecast.MODEL_REGISTRY[n] for n in names], scenario)
    artifacts = {}
    if "csv" in formats:
        artifacts["report.csv"] = forecast.report_to_csv(report)
    if "json" in formats:
        artifacts["report.json"] = forecast.report_to_json(report)
    if "svg" in formats:
        style = svg.ChartStyle(title="forecast", y_label="rate", percent_axis=True)
        # inflation and unemployment carry different unit tags; chart each group
        for group, tag in (
            (list(report.inflation.items()), "inflation"),
            (list(report.unemployment.items()), "unemployment"),
        ):
            if group:
                artifacts[f"forecast_{tag}.svg"] = svg.line_chart(
                    [s.relabel(k) for k, s in group], style=style)
    artifacts["scenario.csv"] = forecast.scenario_to_csv(scenario)
    return artifacts, f"forecast written to {args.out}"


def cmd_plot(args) -> tuple[dict[str, str], str]:
    from . import svg

    name = args.name
    if Path(name).name != name or name == "..":
        raise UsageError(f"--name {name!r} must be a bare file name")
    names = _names(args.series)
    if args.mode == "scatter" and len(names) != 2:
        raise InputError("scatter mode needs exactly two series (x then y)")
    if args.regression and args.mode != "scatter":
        raise UsageError("--regression needs --mode scatter")
    data = ingest.load_all(ingest.entries_for(_manifest(args), names))
    missing = [n for n in names if n not in data]
    if missing:
        raise InputError(f"series not in manifest: {missing}")
    chosen = [data[n] for n in names]
    w = _span("window", args.window) if args.window is not None else None
    if w:  # clipped to each series, which it must overlap
        for i, (series, s) in enumerate(zip(names, chosen)):
            first, last = _overlap(w, (s.start_year, s.end_year))
            if first > last:
                raise InputError(f"window {w[0]}:{w[1]} does not overlap series {series!r} "
                                 f"({s.start_year}..{s.end_year})")
            chosen[i] = s.window(first, last)
    # rates are fractions shown in percent; a persons level is shown as is
    percent = all(s.units != "persons" for s in chosen)
    style = svg.ChartStyle(title=args.title or ",".join(names), percent_axis=percent)
    regression = None
    if args.regression:  # the OLS fit of y on x over the window
        from . import estimate

        spec = estimate.LinkSpec(names[1], (estimate.Predictor(names[0]),), window=w)
        seg = estimate.fit(spec, data).segments[0]
        regression = (seg.intercept, seg.slopes[names[0]])
    if args.mode == "scatter":
        doc = svg.scatter_chart(*chosen, style=style, regression=regression)
    else:
        doc = svg.line_chart(chosen, style=style)
    return {name: doc}, f"chart written to {args.out / name}"


def cmd_fetch(args) -> tuple[dict[str, str], str]:
    manifest = _manifest(args)
    names = _names(args.series) if args.series else sorted(manifest)
    # every name is checked before any is fetched
    for name in names:
        if name not in manifest:
            raise InputError(f"series {name!r} not in manifest")
    remote = [name for name in names if manifest[name].remote is not None]
    for name in remote:
        ingest.read_entry(f"series {name!r}", manifest[name], label=name,
                          timeout=args.timeout, force=args.force)
    return {}, f"fetched {len(remote)} remote series"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lfphillips",
        description="Labor-force-driven Phillips curve estimation and forecasting",
    )
    parser.add_argument("--manifest", help="dataset manifest JSON")
    parser.add_argument("--out", help="output directory (default: out)")
    parser.add_argument("--format", help="comma-separated forecast formats: csv,json,svg")
    parser.add_argument("--window", help="restrict to years Y1:Y2")
    parser.add_argument("--cache-dir", help="override the remote-fetch cache directory")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_spec_flags(p):
        p.add_argument("--spec", help="model spec JSON file (canonical form)")
        p.add_argument("--response", help="response series name")
        p.add_argument("--predictor", action="append",
                       help="predictor as name or name:lag (repeatable)")
        p.add_argument("--estimator", choices=["ols", "cumulative"])
        p.add_argument("--break-year", type=int, dest="break_year")
        p.add_argument("--share", action="append",
                       help="coefficient shared across break segments (repeatable)")

    p_fit = sub.add_parser("fit", help="fit one lagged linear link")
    add_spec_flags(p_fit)
    p_fit.set_defaults(func=cmd_fit)

    p_lag = sub.add_parser("scan-lag", help="exhaustive lag scan")
    add_spec_flags(p_lag)
    p_lag.add_argument("--lags", default="-5:5",
                       help="lag range A:B (default -5:5); a negative A is written --lags=-3:3")
    p_lag.set_defaults(func=cmd_scan_lag)

    p_brk = sub.add_parser("scan-break", help="exhaustive break-year scan")
    add_spec_flags(p_brk)
    p_brk.add_argument("--years", required=True,
                       help="candidate break years A:B; a negative A is written --years=-3:3")
    p_brk.set_defaults(func=cmd_scan_break)

    p_diag = sub.add_parser("diagnose", help="fit plus residual diagnostics")
    add_spec_flags(p_diag)
    p_diag.add_argument("--adf-lags", type=int, default=0)
    p_diag.set_defaults(func=cmd_diagnose)

    p_fc = sub.add_parser("forecast", help="propagate a labor-force scenario")
    p_fc.add_argument("--scenario", required=True, help="scenario JSON file")
    p_fc.add_argument("--models", default="eq8,eq9",
                      help="comma-separated registry model ids (default eq8,eq9)")
    p_fc.set_defaults(func=cmd_forecast)

    p_plot = sub.add_parser("plot", help="chart manifest series as SVG")
    p_plot.add_argument("--series", required=True, help="comma-separated series names")
    p_plot.add_argument("--mode", choices=["line", "scatter"], default="line")
    p_plot.add_argument("--regression", action="store_true",
                        help="overlay an OLS line in scatter mode")
    p_plot.add_argument("--title", help="chart title")
    p_plot.add_argument("--name", default="chart.svg", help="output file name (default chart.svg)")
    p_plot.set_defaults(func=cmd_plot)

    p_fetch = sub.add_parser("fetch", help="warm the cache for remote manifest entries")
    p_fetch.add_argument("--series", help="comma-separated names (default: all remote)")
    p_fetch.add_argument("--force", action="store_true", help="refetch even on a warm cache")
    p_fetch.add_argument("--timeout", type=float, default=30.0, help="HTTP timeout seconds")
    p_fetch.set_defaults(func=cmd_fetch)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_flags(args)
        args.out = Path("out" if args.out is None else args.out)
        artifacts, message = args.func(args)
        if artifacts:  # every artifact is built before the first is written
            args.out.mkdir(parents=True, exist_ok=True)
        for name, text in artifacts.items():
            ingest.write_atomic(args.out / name, text)
        print(message)
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 2
    except (LfphillipsError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
