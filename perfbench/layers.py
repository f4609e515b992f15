"""Per-layer metrics for lfphillips, taken from outside the package.

:func:`installed` swaps benchmark-side wrappers in for the public functions
of each module of ``src/lfphillips/`` (on every ``lfphillips`` module object
that holds them, so ``estimate.t_pvalue`` is traced too) and for
``AnnualSeries.__post_init__``; :func:`layer_metrics` turns the recorded
spans into the per-layer figures. Names ending in ``.ms`` are inclusive time
and ``self_ms`` is self time; times and counts are per operation.
"""

from __future__ import annotations

import contextlib
import inspect
import sys
from collections import Counter, defaultdict

from lfphillips import cli, diagnose, estimate, forecast, ingest, series, svg
from tracer import Patches, Span, Tracer, self_times

FIT_PREFIX = "estimate.fit["

# Every per-layer metric the traced run reports, with its unit.
UNITS = {
    "import.lfphillips_cli.ms": "ms",
    "import.numpy.ms": "ms",
    "cli.main.calls": "count/op",
    "cli.main.self_ms": "ms/op",
    "cli.main.failures": "count/op",
    "ingest.load_manifest.ms": "ms/op",
    "ingest.load_all.ms": "ms/op",
    "ingest.read_csv_series.calls": "count/op",
    "ingest.write_csv_series.ms": "ms/op",
    "series.AnnualSeries.constructed": "count/op",
    "series.AnnualSeries.validate_ms": "ms/op",
    "series.log_growth.calls": "count/op",
    "series.log_growth.self_ms": "ms/op",
    "estimate.fit.calls": "count/op",
    "estimate.fit.failures": "count/op",
    "estimate.fit_ols.self_ms": "ms/op",
    "estimate.fit_cumulative.self_ms": "ms/op",
    "estimate.scan_break.self_ms": "ms/op",
    "estimate.scan_lag.self_ms": "ms/op",
    "estimate.scan.candidates": "count/op",
    "estimate.scan.kept_ratio": "ratio",
    "estimate.predict.calls": "count/op",
    "diagnose.t_pvalue.calls": "count/op",
    "diagnose.t_pvalue.self_ms": "ms/op",
    "diagnose.adf_test.calls": "count/op",
    "diagnose.adf_test.self_ms": "ms/op",
    "forecast.build_scenario.self_ms": "ms/op",
    "forecast.forecast_report.self_ms": "ms/op",
    "forecast.serialize.self_ms": "ms/op",
    "forecast.load_scenario.ms": "ms/op",
    "svg.line_chart.calls": "count/op",
    "svg.line_chart.self_ms": "ms/op",
    "svg.line_chart.bytes_out": "bytes/op",
    "trace.overhead_ratio": "ratio",
    "trace.ops": "count",
}


def _fit_name(estimator: str | None):
    """Fit spans carry the estimator, forced by ``ols_fit``/``cumulative_fit``."""

    def name(args, kwargs):
        spec = args[0] if args else kwargs["spec"]
        return f"{FIT_PREFIX}{estimator or spec.estimator}]"

    return name


def _note_scan(fn, candidate_arg: str):
    signature = inspect.signature(fn)

    def annotate(span: Span, args, kwargs, result) -> None:
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        span.info["candidates"] = len(bound.arguments[candidate_arg])
        span.info["kept"] = len(result[0])

    return annotate


def _note_exit_code(span: Span, args, kwargs, result) -> None:
    span.failed = result != 0


def _note_bytes(span: Span, args, kwargs, result) -> None:
    span.info["bytes"] = len(result.encode("utf-8"))


def _targets():
    """(module, attribute, span name, annotate) for every traced function."""
    return [
        (cli, "main", "cli.main", _note_exit_code),
        (ingest, "load_manifest", "ingest.load_manifest", None),
        (ingest, "load_all", "ingest.load_all", None),
        (ingest, "read_csv_series", "ingest.read_csv_series", None),
        (ingest, "write_csv_series", "ingest.write_csv_series", None),
        (series, "log_growth", "series.log_growth", None),
        (estimate, "fit", _fit_name(None), None),
        (estimate, "fit_piecewise", _fit_name(None), None),
        (estimate, "ols_fit", _fit_name("ols"), None),
        (estimate, "cumulative_fit", _fit_name("cumulative"), None),
        (estimate, "scan_break", "estimate.scan_break",
         _note_scan(estimate.scan_break, "candidate_years")),
        (estimate, "scan_lag", "estimate.scan_lag", _note_scan(estimate.scan_lag, "lag_range")),
        (estimate, "predict", "estimate.predict", None),
        (diagnose, "t_pvalue", "diagnose.t_pvalue", None),
        (diagnose, "adf_test", "diagnose.adf_test", None),
        (forecast, "build_scenario", "forecast.build_scenario", None),
        (forecast, "forecast_report", "forecast.forecast_report", None),
        (forecast, "report_to_csv", "forecast.serialize", None),
        (forecast, "report_to_json", "forecast.serialize", None),
        (forecast, "scenario_to_csv", "forecast.serialize", None),
        (forecast, "load_scenario", "forecast.load_scenario", None),
        (svg, "line_chart", "svg.line_chart", _note_bytes),
    ]


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Route the package's public functions through ``tracer`` until exit."""
    patches = Patches()
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "lfphillips" or name.startswith("lfphillips."))]
    try:
        for module, attr, name, annotate in _targets():
            original = getattr(module, attr)
            wrapper = tracer.wrap(original, name, annotate)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        patches.set(m, key, wrapper)
        cls = series.AnnualSeries
        patches.set(cls, "__post_init__",
                    tracer.wrap(cls.__post_init__, "series.AnnualSeries.validate"))
        yield
    finally:
        patches.restore()


def layer_metrics(spans: list[Span], n_ops: int) -> dict[str, float]:
    """Per-operation figures over one traced run of ``n_ops`` operations."""
    selfs = self_times(spans)
    calls: Counter = Counter()
    failures: Counter = Counter()
    self_s: defaultdict = defaultdict(float)
    incl_s: defaultdict = defaultdict(float)
    info: defaultdict = defaultdict(int)
    fits = fit_failures = 0
    for span, own in zip(spans, selfs):
        calls[span.name] += 1
        failures[span.name] += span.failed
        self_s[span.name] += own
        incl_s[span.name] += span.duration
        for key, value in span.info.items():
            info[key] += value
        if span.name.startswith(FIT_PREFIX) and (
                span.parent is None or not spans[span.parent].name.startswith(FIT_PREFIX)):
            fits += 1
            fit_failures += span.failed

    def count(v: float) -> float:
        return v / n_ops

    def ms(seconds: float) -> float:
        return 1e3 * seconds / n_ops

    return {
        "cli.main.calls": count(calls["cli.main"]),
        "cli.main.self_ms": ms(self_s["cli.main"]),
        "cli.main.failures": count(failures["cli.main"]),
        "ingest.load_manifest.ms": ms(incl_s["ingest.load_manifest"]),
        "ingest.load_all.ms": ms(incl_s["ingest.load_all"]),
        "ingest.read_csv_series.calls": count(calls["ingest.read_csv_series"]),
        "ingest.write_csv_series.ms": ms(incl_s["ingest.write_csv_series"]),
        "series.AnnualSeries.constructed": count(calls["series.AnnualSeries.validate"]),
        "series.AnnualSeries.validate_ms": ms(self_s["series.AnnualSeries.validate"]),
        "series.log_growth.calls": count(calls["series.log_growth"]),
        "series.log_growth.self_ms": ms(self_s["series.log_growth"]),
        "estimate.fit.calls": count(fits),
        "estimate.fit.failures": count(fit_failures),
        "estimate.fit_ols.self_ms": ms(self_s[f"{FIT_PREFIX}ols]"]),
        "estimate.fit_cumulative.self_ms": ms(self_s[f"{FIT_PREFIX}cumulative]"]),
        "estimate.scan_break.self_ms": ms(self_s["estimate.scan_break"]),
        "estimate.scan_lag.self_ms": ms(self_s["estimate.scan_lag"]),
        "estimate.scan.candidates": count(info["candidates"]),
        "estimate.scan.kept_ratio": info["kept"] / info["candidates"] if info["candidates"] else 0.0,
        "estimate.predict.calls": count(calls["estimate.predict"]),
        "diagnose.t_pvalue.calls": count(calls["diagnose.t_pvalue"]),
        "diagnose.t_pvalue.self_ms": ms(self_s["diagnose.t_pvalue"]),
        "diagnose.adf_test.calls": count(calls["diagnose.adf_test"]),
        "diagnose.adf_test.self_ms": ms(self_s["diagnose.adf_test"]),
        "forecast.build_scenario.self_ms": ms(self_s["forecast.build_scenario"]),
        "forecast.forecast_report.self_ms": ms(self_s["forecast.forecast_report"]),
        "forecast.serialize.self_ms": ms(self_s["forecast.serialize"]),
        "forecast.load_scenario.ms": ms(incl_s["forecast.load_scenario"]),
        "svg.line_chart.calls": count(calls["svg.line_chart"]),
        "svg.line_chart.self_ms": ms(self_s["svg.line_chart"]),
        "svg.line_chart.bytes_out": count(info["bytes"]),
        "trace.ops": float(n_ops),
    }
