import ast
import contextlib
import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
import urllib.request
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from lfphillips import estimate, forecast, ingest, svg
from lfphillips.cli import main
from lfphillips.errors import InputError
from lfphillips.estimate import LinkSpec
from lfphillips.oracle import SynthSpec, generate
from lfphillips.series import AnnualSeries
from tests.conftest import DATA_DIR


@pytest.fixture()
def line_fixture(tmp_path):
    """Manifest with an exact y = 2x line (as unemployment-kind fractions)."""
    x = "year,value\n" + "\n".join(f"{1980 + i},{0.001 * i}" for i in range(20))
    y = "year,value\n" + "\n".join(f"{1980 + i},{0.002 * i}" for i in range(20))
    (tmp_path / "x.csv").write_text(x + "\n")
    (tmp_path / "y.csv").write_text(y + "\n")
    manifest = {"series": {
        "x": {"path": "x.csv", "kind": "unemployment", "units": "fraction"},
        "y": {"path": "y.csv", "kind": "unemployment", "units": "fraction"},
    }}
    mpath = tmp_path / "manifest.json"
    mpath.write_text(json.dumps(manifest))
    return mpath


@pytest.fixture()
def break_fixture(tmp_path):
    """Synthetic dataset with a slope break injected at 1998."""
    x, y = generate(SynthSpec(intercept=0.02, slope=-1.5, break_year=1998,
                              post_intercept=0.02, post_slope=-0.1,
                              noise_sigma=0.001, length=40, seed=29))
    ingest.write_csv_series(x.scale(100), tmp_path / "x.csv")
    ingest.write_csv_series(y.scale(100), tmp_path / "y.csv")
    manifest = {"series": {
        "x": {"path": "x.csv", "kind": "cpi-inflation", "units": "percent"},
        "y": {"path": "y.csv", "kind": "cpi-inflation", "units": "percent"},
    }}
    mpath = tmp_path / "manifest.json"
    mpath.write_text(json.dumps(manifest))
    return mpath


def run(*argv):
    return main(list(argv))


ROOT = Path(__file__).resolve().parent.parent
SUBCOMMANDS = ("fit", "scan-lag", "scan-break", "diagnose", "forecast", "plot", "fetch")


def readme_cli_examples():
    """Each command of the first ``sh`` block under README's "## CLI", split as
    a shell would split it."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text[text.index("\n## CLI\n"):]
    block = section[section.index("```sh\n") + len("```sh\n"):]
    block = block[:block.index("```")].replace("\\\n", " ")
    commands = [shlex.split(line) for line in block.splitlines() if line.strip()]
    return [pytest.param(argv, id=f"{i}-{next(a for a in argv[1:] if a in SUBCOMMANDS)}")
            for i, argv in enumerate(commands)]


class TestExitCodes:
    def test_missing_manifest_is_usage_error(self, tmp_path, capsys):
        code = run("--out", str(tmp_path / "o"), "fit", "--response", "y",
                   "--predictor", "x")
        assert code == 2
        assert "usage" in capsys.readouterr().err

    def test_missing_spec_is_usage_error(self, line_fixture, tmp_path, capsys):
        code = run("--manifest", str(line_fixture), "--out", str(tmp_path / "o"), "fit")
        assert code == 2

    def test_unknown_series_is_data_error(self, line_fixture, tmp_path, capsys):
        code = run("--manifest", str(line_fixture), "--out", str(tmp_path / "o"),
                   "fit", "--response", "nope", "--predictor", "x")
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_unparsable_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            run("frobnicate")
        assert exc.value.code == 2


class TestFit:
    def test_exact_line(self, line_fixture, tmp_path):
        out = tmp_path / "o"
        assert run("--manifest", str(line_fixture), "--out", str(out),
                   "fit", "--response", "y", "--predictor", "x") == 0
        doc = json.loads((out / "fit.json").read_text())
        assert doc["coefficients"]["x"] == pytest.approx(2.0, abs=1e-10)
        assert doc["coefficients"]["intercept"] == pytest.approx(0.0, abs=1e-10)
        assert (out / "residuals.csv").exists()

    def test_spec_file_is_canonical(self, line_fixture, tmp_path):
        spec = {"response": "y", "predictors": [{"name": "x", "lag": 0}],
                "estimator": "cumulative"}
        spath = tmp_path / "spec.json"
        spath.write_text(json.dumps(spec))
        out = tmp_path / "o"
        assert run("--manifest", str(line_fixture), "--out", str(out),
                   "fit", "--spec", str(spath)) == 0
        doc = json.loads((out / "fit.json").read_text())
        assert doc["spec"]["estimator"] == "cumulative"
        assert doc["coefficients"]["x"] == pytest.approx(2.0, abs=1e-10)

    def test_float_spelled_window_is_echoed_as_integers(self, line_fixture, tmp_path):
        outs = []
        for window in ([1982, 1995], [1982.0, 1995.0]):
            spec = {"response": "y", "predictors": [{"name": "x", "lag": 1.0}],
                    "window": window}
            spath = tmp_path / "spec.json"
            spath.write_text(json.dumps(spec))
            out = tmp_path / f"o{len(outs)}"
            assert run("--manifest", str(line_fixture), "--out", str(out),
                       "fit", "--spec", str(spath)) == 0
            outs.append((out / "fit.json").read_bytes())
        assert outs[0] == outs[1]
        doc = json.loads(outs[1])
        assert doc["spec"]["window"] == [1982, 1995]
        assert doc["spec"]["predictors"] == [{"name": "x", "lag": 1}]


class TestScan:
    def test_lag_scan_identity(self, line_fixture, tmp_path):
        out = tmp_path / "o"
        assert run("--manifest", str(line_fixture), "--out", str(out),
                   "scan-lag", "--response", "y", "--predictor", "x",
                   "--lags=-3:3") == 0
        rows = (out / "scan_lag.csv").read_text().strip().split("\n")[1:]
        best = [r for r in rows if r.endswith("*")]
        assert len(best) == 1 and best[0].startswith("0,")

    def test_break_scan_injected(self, break_fixture, tmp_path):
        out = tmp_path / "o"
        assert run("--manifest", str(break_fixture), "--out", str(out),
                   "scan-break", "--response", "y", "--predictor", "x",
                   "--share", "intercept", "--years", "1990:2009") == 0
        rows = (out / "scan_break.csv").read_text().strip().split("\n")[1:]
        best = [r for r in rows if r.endswith("*")]
        assert len(best) == 1 and best[0].startswith("1998,")


class TestScanRangeClip:
    """A scan's cost follows the data, not the width of the requested range."""

    @staticmethod
    def scan(tmp_path, capsys, name, *argv):
        out = tmp_path / name
        code = run("--manifest", str(DATA_DIR / "manifest.json"), "--out", str(out), *argv)
        captured = capsys.readouterr()
        files = {p.name: p.read_bytes() for p in sorted(out.glob("*"))}
        return code, captured.out, captured.err, files

    @pytest.mark.parametrize("estimator", ["ols", "cumulative"])
    @pytest.mark.parametrize("command, wide, narrow, code", [
        ("scan-lag", "--lags=-20000:20000", "--lags=-60:60", 0),
        # no lag or year leaves a legal sample: the same exit 1 and message
        ("scan-lag", "--lags=500:90000", "--lags=500:600", 1),
        ("scan-break", "--years=-20000:20000", "--years=1900:2100", 0),
        ("scan-break", "--years=2500:90000", "--years=2500:2600", 1),
    ])
    def test_wide_range_writes_the_narrow_bytes(self, tmp_path, capsys, estimator, command,
                                                wide, narrow, code):
        argv = (command, "--response", "cpi", "--predictor", "unemployment",
                "--estimator", estimator)
        got = self.scan(tmp_path, capsys, "wide", *argv, wide)
        assert got == self.scan(tmp_path, capsys, "narrow", *argv, narrow)
        assert got[0] == code

    @pytest.mark.parametrize("command, flag, response", [
        ("scan-lag", "--lags=0:200000000", "cpi"),
        ("scan-lag", "--lags=-200000000:0", "absent"),
        ("scan-break", "--years=0:200000000", "cpi"),
        ("scan-break", "--years=0:200000000", "absent"),
    ])
    def test_scan_receives_a_bounded_candidate_list(self, monkeypatch, tmp_path, capsys,
                                                    command, flag, response):
        name = command.replace("-", "_")
        real = getattr(estimate, name)
        seen = []

        def bounded(spec, data, **candidates):
            (size,) = map(len, candidates.values())
            seen.append(size)
            # checked before the real scan runs, so an unclipped range never reaches it
            assert size <= 120, f"{size} candidates reached {name}"
            return real(spec, data, **candidates)

        monkeypatch.setattr(estimate, name, bounded)
        code, _, err, _ = self.scan(tmp_path, capsys, "o", command, "--response", response,
                                    "--predictor", "unemployment", flag)
        assert len(seen) == 1
        assert code == (0 if response == "cpi" else 1)
        assert "Traceback" not in err


class TestScanCsv:
    """The scan CSVs keep the layout that the scan writers spelled out by hand."""

    @pytest.mark.parametrize("command, argv", [
        ("scan-lag", ["--predictor", "labor_force_growth", "--estimator", "cumulative",
                      "--lags=-6:6"]),
        ("scan-lag", ["--predictor", "unemployment", "--lags=-3:3"]),
        ("scan-break", ["--predictor", "unemployment", "--years", "1975:1994"]),
        ("scan-break", ["--predictor", "unemployment", "--estimator", "cumulative",
                        "--years", "1970:2000"]),
    ])
    def test_bytes_match_the_row_formula(self, monkeypatch, tmp_path, command, argv):
        name = command.replace("-", "_")
        real, seen = getattr(estimate, name), []

        def spy(*args, **kwargs):
            seen.append(real(*args, **kwargs))
            return seen[-1]

        monkeypatch.setattr(estimate, name, spy)
        out = tmp_path / "o"
        with contextlib.redirect_stdout(io.StringIO()):
            assert run("--manifest", str(DATA_DIR / "manifest.json"), "--out", str(out),
                       command, "--response", "cpi", *argv) == 0
        (results, best), = seen
        if command == "scan-lag":
            lines = ["lag,r2_annual,r2_cumulative,sse,best"] + [
                f"{lag},{res.r2_annual!r},{res.r2_cumulative!r},{res.objective_sse!r},"
                f"{'*' if lag == best else ''}" for lag, res in results]
        else:
            lines = ["year,sse,best"] + [
                f"{year},{sse!r},{'*' if year == best else ''}" for year, sse in results]
        assert (out / f"{name}.csv").read_text() == "\n".join(lines) + "\n"


class TestDiagnose:
    def test_writes_adf_block(self, break_fixture, tmp_path):
        out = tmp_path / "o"
        assert run("--manifest", str(break_fixture), "--out", str(out),
                   "diagnose", "--response", "y", "--predictor", "x") == 0
        doc = json.loads((out / "diagnose.json").read_text())
        assert "statistic" in doc["adf"]
        assert "0.05" in doc["adf"]["rejects_unit_root"]


class TestMalformedJson:
    """Structurally wrong JSON inputs end in exit 1 naming the culprit."""

    def test_spec_without_predictors(self, line_fixture, tmp_path, capsys):
        spath = tmp_path / "spec.json"
        spath.write_text(json.dumps({"response": "y"}))
        assert run("--manifest", str(line_fixture), "--out", str(tmp_path / "o"),
                   "fit", "--spec", str(spath)) == 1
        err = capsys.readouterr().err
        assert "predictors" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("doc, culprit", [
        ([1, 2], "horizon"),
        ({"horizon": [2011, {}], "linear": {}}, "horizon"),
        ({"horizon": [2011, 2030], "labor_force_csv": 5}, "labor_force_csv"),
        ({"horizon": [2011, 2030], "population_csv": None, "participation": 0.6},
         "population_csv"),
        ({"horizon": [2011, 2030], "population_csv": "pop.csv"}, "participation"),
        ({"horizon": [2011, 2030], "population_csv": "pop.csv", "participation": [0.6]},
         "participation"),
        ({"horizon": [2011, 2030], "linear": {"start_year": 2010, "start": 1e6, "end": 9e5}},
         "linear.end_year"),
        ({"horizon": [2011, 2030], "linear": [1, 2]}, "linear"),
        ({"horizon": [2011, 2030],
          "linear": {"start_year": 2010, "end_year": None, "start": 1e6, "end": 9e5}},
         "linear.end_year"),
        ({"horizon": [2011, 2030], "linear": {"start_year": 2010, "end_year": 2030,
                                              "start": 1e6, "end": 9e5}, "unit": "thousands"},
         "unit"),
        ({"horizon": [2011, 2030], "linear": {"start_year": 2010, "end_year": 2030,
                                              "start": 1e6, "end": 9e5, "stop": 2020}},
         "linear.stop"),
        # a key that the named source would ignore
        ({"horizon": [2011, 2030], "linear": {"start_year": 2010, "end_year": 2030,
                                              "start": 1e6, "end": 9e5}, "units": "thousands"},
         "units"),
        ({"horizon": [2011, 2030], "linear": {"start_year": 2010, "end_year": 2030,
                                              "start": 1e6, "end": 9e5}, "participation": 0.5},
         "participation"),
        ({"horizon": [2011, 2030], "labor_force_csv": "pop.csv", "participation": 0.5},
         "participation"),
        # two sources
        ({"horizon": [2011, 2030], "labor_force_csv": "pop.csv",
          "linear": {"start_year": 2010, "end_year": 2030, "start": 1e6, "end": 9e5}},
         "linear"),
        ({"horizon": [2011, 2030], "labor_force_csv": "pop.csv", "population_csv": "pop.csv",
          "participation": 0.5}, "population_csv"),
        # years that are not integral
        ({"horizon": [2011.7, 2030], "linear": {"start_year": 2010, "end_year": 2030,
                                                "start": 1e6, "end": 9e5}}, "horizon"),
        ({"horizon": ["2011", 2030], "linear": {"start_year": 2010, "end_year": 2030,
                                                "start": 1e6, "end": 9e5}}, "horizon"),
        ({"horizon": [2011, 2030], "linear": {"start_year": 2010.5, "end_year": 2030,
                                              "start": 1e6, "end": 9e5}}, "linear.start_year"),
        ({"horizon": [2011, 2030], "linear": {"start_year": 2010, "end_year": True,
                                              "start": 1e6, "end": 9e5}}, "linear.end_year"),
        # numbers spelled as booleans or strings
        ({"horizon": [2011, 2030], "linear": {"start_year": 2010, "end_year": 2030,
                                              "start": "67e6", "end": 6e7}}, "linear.start"),
        ({"horizon": [2011, 2030], "linear": {"start_year": 2010, "end_year": 2030,
                                              "start": 6.7e7, "end": True}}, "linear.end"),
        ({"horizon": [2011, 2030], "population_csv": "pop.csv", "participation": True},
         "participation"),
        ({"horizon": [2011, 2030], "population_csv": "pop.csv", "participation": "0.6"},
         "participation"),
    ])
    def test_malformed_scenario(self, tmp_path, capsys, doc, culprit):
        (tmp_path / "pop.csv").write_text(
            "year,value\n" + "".join(f"{y},{1e8}\n" for y in range(2010, 2031)))
        spath = tmp_path / "s.json"
        spath.write_text(json.dumps(doc))
        assert run("--out", str(tmp_path / "o"), "forecast", "--scenario", str(spath)) == 1
        err = capsys.readouterr().err
        assert f"'{culprit}'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("source, extra", [("labor_force_csv", {}),
                                               ("population_csv", {"participation": 0.5})])
    @pytest.mark.parametrize("rows, reason", [
        ("2008,100\n2009,200\n2010,abc\n", "row 4: unparsable row '2010,abc'"),
        (None, "No such file or directory"),
    ])
    def test_scenario_csv_error_names_the_file(self, tmp_path, capsys, source, extra, rows,
                                               reason):
        csv = tmp_path / "lf.csv"
        if rows is not None:
            csv.write_text("year,value\n" + rows)
        spath = tmp_path / "s.json"
        spath.write_text(json.dumps({"horizon": [2010, 2020], source: "lf.csv", **extra}))
        assert run("--out", str(tmp_path / "o"), "forecast", "--scenario", str(spath)) == 1
        assert capsys.readouterr().err == f"error: scenario '{source}' ({csv}): {reason}\n"

    @pytest.mark.parametrize("fields, culprit", [
        ({"break_year": "1990"}, "break_year"),
        ({"break_year": 1990.5}, "break_year"),
        ({"window": [1982]}, "window"),
        ({"window": ["1982", "2012"]}, "window year"),
        ({"response": {}}, "response"),
        ({"predictors": [{"name": "unemployment", "lag": 1.5}]}, "lag"),
        ({"predictors": [{"name": "unemployment", "lag": True}]}, "lag"),
    ])
    def test_spec_field_of_the_wrong_type(self, tmp_path, capsys, fields, culprit):
        spec = {"response": "cpi", "predictors": [{"name": "unemployment"}], **fields}
        spath = tmp_path / "spec.json"
        spath.write_text(json.dumps(spec))
        assert run("--manifest", str(DATA_DIR / "manifest.json"), "--out", str(tmp_path / "o"),
                   "fit", "--spec", str(spath)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {culprit} must be")
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("fields, message", [
        ('"linear": {"start_year": 2010, "end_year": 2030, "start": NaN, "end": 6e7}',
         "scenario 'linear.start' must be a finite number, got nan"),
        ('"linear": {"start_year": 2010, "end_year": 2030, "start": 6e7, "end": Infinity}',
         "scenario 'linear.end' must be a finite number, got inf"),
        ('"linear": {"start_year": 2010, "end_year": 2030, "start": 1e999, "end": 6e7}',
         "scenario 'linear.start' must be a finite number, got inf"),
        ('"linear": {"start_year": 2010, "end_year": 2030, "start": 1' + "0" * 400
         + ', "end": 6e7}',
         "scenario 'linear.start' must be a finite number, got an integer too large for a float"),
        ('"linear": {"start_year": 2010, "end_year": 2030, "start": 1e308, "end": -1e308}',
         "scenario linear path from 'linear.start' 1e+308 to 'linear.end' -1e+308 "
         "overflows a float"),
        ('"population_csv": "pop.csv", "participation": NaN',
         "scenario 'participation' must be a finite number, got nan"),
    ])
    def test_non_finite_scenario_number_is_named(self, tmp_path, capsys, fields, message):
        (tmp_path / "pop.csv").write_text(
            "year,value\n" + "".join(f"{y},{1e8}\n" for y in range(2010, 2031)))
        spath = tmp_path / "s.json"
        spath.write_text('{"horizon": [2011, 2030], ' + fields + "}")
        assert run("--out", str(tmp_path / "o"), "forecast", "--scenario", str(spath)) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "o").exists()

    def test_manifest_entry_that_is_a_number(self, tmp_path, capsys):
        mpath = tmp_path / "manifest.json"
        mpath.write_text(json.dumps({"series": {"u": 5}}))
        assert run("--manifest", str(mpath), "--out", str(tmp_path / "o"),
                   "fit", "--response", "u", "--predictor", "u") == 1
        err = capsys.readouterr().err
        assert "'u'" in err
        assert "Traceback" not in err


U_ENTRY = {"path": "u.csv", "kind": "unemployment", "units": "fraction"}
U_REMOTE = {"base_url": "http://127.0.0.1:1", "dataset": "lfs", "key": "u"}


class TestMalformedManifest:
    """A manifest field of the wrong type or an unknown key ends in exit 1
    naming the series and the field, before any series is read."""

    @pytest.mark.parametrize("doc, culprits", [
        ({"series": {"u": {**U_ENTRY, "path": 5}}}, ["'u'", "'path'"]),
        ({"series": {"u": {**U_ENTRY, "path": None}}}, ["'u'", "'path'"]),
        ({"series": {"u": {"remote": {**U_REMOTE, "base_url": 5}, "kind": "unemployment",
                           "units": "fraction"}}}, ["'u'", "'remote.base_url'"]),
        ({"series": {"u": {"remote": {**U_REMOTE, "cache": 7}, "kind": "unemployment",
                           "units": "fraction"}}}, ["'u'", "'remote.cache'"]),
        ({"series": {"u": {"remote": {**U_REMOTE, "ttl": 7}, "kind": "unemployment",
                           "units": "fraction"}}}, ["'u'", "'remote.ttl'"]),
        ({"series": {"u": {"remote": [1], "kind": "unemployment", "units": "fraction"}}},
         ["'u'", "'remote'"]),
        ({"series": {"u": {"remote": {"base_url": "http://127.0.0.1:1", "key": "u"},
                           "kind": "unemployment", "units": "fraction"}}},
         ["'u'", "'remote.dataset'"]),
        ({"series": {"u": {**U_ENTRY, "unit": "percent"}}}, ["'u'", "'unit'"]),
        ({"series": {"u": {"path": "u.csv", "units": "fraction"}}}, ["'u'", "'kind'"]),
        ({"series": {"u": U_ENTRY}, "notes": "x"}, ["'notes'"]),
        ({"series": {"u": {**U_ENTRY, "remote": U_REMOTE}}}, ["'u'", "'path'", "'remote'"]),
        ({"series": {"u": {"kind": "unemployment", "units": "fraction"}}},
         ["'u'", "'path'", "'remote'"]),
        # the growth series derived from a labor-force entry would replace the user's own
        ({"series": {"u": U_ENTRY,
                     "lf": {"path": "lf.csv", "kind": "labor-force", "units": "persons"},
                     "lf_growth": U_ENTRY}}, ["'lf'", "'lf_growth'"]),
    ])
    def test_refused_manifest(self, tmp_path, capsys, doc, culprits):
        mpath = tmp_path / "manifest.json"
        mpath.write_text(json.dumps(doc))
        assert run("--manifest", str(mpath), "--out", str(tmp_path / "o"),
                   "fit", "--response", "u", "--predictor", "u") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        for culprit in culprits:
            assert culprit in err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_labor_force_growth_is_derived(self, tmp_path):
        # the collision check refuses only a clash: a labor-force entry alone loads
        (tmp_path / "lf.csv").write_text("year,value\n2000,100\n2001,110\n")
        mpath = tmp_path / "manifest.json"
        mpath.write_text(json.dumps({"series": {
            "lf": {"path": "lf.csv", "kind": "labor-force", "units": "persons"}}}))
        data = ingest.load_all(ingest.load_manifest(mpath))
        assert sorted(data) == ["lf", "lf_growth"]


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6,
)
SERIES_NAMES = st.sampled_from(["cpi", "dgdp", "unemployment", "labor_force_growth", "nope"])
YEARS = st.integers(1955, 2020)
REQUIRED = {
    "response": SERIES_NAMES,
    "predictors": st.lists(st.fixed_dictionaries({"name": SERIES_NAMES},
                                                 optional={"lag": st.integers(-6, 6)}),
                           min_size=1, max_size=2),
}
OPTIONAL = {
    "estimator": st.sampled_from(["ols", "cumulative"]),
    "break_year": st.none() | YEARS,
    "shared": st.lists(st.sampled_from(["intercept", "unemployment", "cpi"]), max_size=2),
    "window": st.none() | st.lists(YEARS, min_size=2, max_size=2),
}


@st.composite
def spec_docs(draw):
    """Any JSON value, or a well-typed spec with up to two keys (a predictor's
    name and lag among them) set to any JSON value."""
    if draw(st.integers(0, 4)) == 0:
        return draw(JSON_VALUES)
    doc = draw(st.fixed_dictionaries(REQUIRED, optional=OPTIONAL))
    predictor = doc["predictors"][0]
    fields = [*REQUIRED, *OPTIONAL, "name", "lag"]
    for key in draw(st.lists(st.sampled_from(fields), max_size=2, unique=True)):
        (predictor if key in ("name", "lag") else doc)[key] = draw(JSON_VALUES)
    return doc


class TestSpecFuzz:
    # the examples share tmp_path; each one rewrites the spec and the artifacts
    @settings(max_examples=200, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(doc=spec_docs())
    def test_fit_ends_in_an_exit_code(self, tmp_path, doc):
        spath = tmp_path / "spec.json"
        spath.write_text(json.dumps(doc), encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = run("--manifest", str(DATA_DIR / "manifest.json"),
                       "--out", str(tmp_path / "o"), "fit", "--spec", str(spath))
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if code == 0:
            echo = json.loads((tmp_path / "o" / "fit.json").read_text())["spec"]
            assert LinkSpec.from_dict(echo).to_dict() == echo


ENTRY_FIELDS = ["path", "remote", "kind", "units",
                "remote.base_url", "remote.dataset", "remote.key", "remote.cache"]


@st.composite
def manifest_entries(draw):
    """Any JSON value, or a well-typed entry with up to two fields (those of
    its remote descriptor among them) set to any JSON value."""
    if draw(st.integers(0, 4)) == 0:
        return draw(JSON_VALUES)
    remote = st.fixed_dictionaries(
        {"base_url": st.just("http://127.0.0.1:1"), "dataset": st.text(max_size=4),
         "key": st.text(max_size=4)}, optional={"cache": st.text(max_size=4)})
    entry = draw(st.fixed_dictionaries(
        {"kind": st.sampled_from(ingest.KINDS), "units": st.sampled_from(ingest.SOURCE_UNITS)},
        optional={"path": st.text(max_size=4), "remote": remote}))
    for key in draw(st.lists(st.sampled_from(ENTRY_FIELDS), max_size=2, unique=True)):
        owner, _, field = key.rpartition(".")
        target = entry.get("remote") if owner else entry
        if isinstance(target, dict):
            target[field] = draw(JSON_VALUES)
    return entry


class TestManifestFuzz:
    # the examples share tmp_path; each one rewrites the manifest and the artifacts
    @settings(max_examples=200, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(entry=manifest_entries())
    def test_any_entry_ends_in_exit_0_or_1(self, monkeypatch, tmp_path, entry):
        # a remote entry loads this payload instead of touching the network
        monkeypatch.setattr(ingest, "fetch_payload",
                            lambda *args, **kwargs: "year,value\n2000,1.0\n2001,2.0\n")
        japan = {name: {"path": str(DATA_DIR / f"{name}.csv"), "kind": kind, "units": "percent"}
                 for name, kind in [("cpi_inflation", "cpi-inflation"),
                                    ("unemployment", "unemployment")]}
        mpath = tmp_path / "manifest.json"
        mpath.write_text(json.dumps({"series": {"x": entry, **japan}}), encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = run("--manifest", str(mpath), "--out", str(tmp_path / "o"),
                       "fit", "--response", "cpi_inflation", "--predictor", "unemployment")
        assert code in (0, 1)
        assert "Traceback" not in err.getvalue()
        if code == 1:
            assert err.getvalue().startswith("error: ")


class TestImports:
    def test_offline_fit_loads_no_http_stack(self, tmp_path):
        # a fresh interpreter: this test process has imported the HTTP stack already
        child = ("import json, sys\n"
                 "from lfphillips import cli\n"
                 "code = cli.main(['--manifest', sys.argv[1], '--out', sys.argv[2], 'fit',\n"
                 "                 '--response', 'cpi', '--predictor', 'unemployment'])\n"
                 "print(json.dumps(sorted(sys.modules)))\n"
                 "sys.exit(code)\n")
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run(
            [sys.executable, "-c", child, str(DATA_DIR / "manifest.json"), str(tmp_path)],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == 0, proc.stderr
        loaded = set(json.loads(proc.stdout.splitlines()[-1]))
        assert "lfphillips.ingest" in loaded
        assert loaded.isdisjoint({"urllib.request", "http.client", "ssl", "email"})

    FIT = {"cli", "errors", "series", "ingest", "estimate", "diagnose"}
    CHART = {"cli", "errors", "series", "ingest", "svg"}
    # the package modules that each run loads: a command of JAPAN_CLI (its plot
    # is a scatter with --regression), a line plot, or ``import lfphillips`` alone
    MODULES = {"fit": FIT, "scan-lag": FIT, "scan-break": FIT, "diagnose": FIT,
               "forecast": {"cli", "errors", "series", "ingest", "forecast", "svg"},
               "line-plot": CHART, "plot": CHART | {"estimate", "diagnose"},
               "import": set()}

    @pytest.mark.parametrize("command", list(MODULES))
    def test_each_command_loads_only_its_modules(self, tmp_path, command):
        # a fresh interpreter: this test process has imported every module already
        child = ("import json, sys\n"
                 "import lfphillips\n"
                 "code = 0\n"
                 "if sys.argv[1:]:\n"
                 "    from lfphillips import cli\n"
                 "    code = cli.main(sys.argv[1:])\n"
                 "print(json.dumps(sorted(sys.modules)))\n"
                 "sys.exit(code)\n")
        argv = [] if command == "import" else [
            "--manifest", str(DATA_DIR / "manifest.json"), "--out", str(tmp_path),
            *(["plot", "--series", "cpi"] if command == "line-plot" else JAPAN_CLI[command])]
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run(
            [sys.executable, "-c", child, *argv],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == 0, proc.stderr
        loaded = json.loads(proc.stdout.splitlines()[-1])
        package = {name for name in loaded if name.partition(".")[0] == "lfphillips"}
        assert package == {"lfphillips", *(f"lfphillips.{name}" for name in self.MODULES[command])}


class TestEmptyFlagValue:
    """An empty flag value is a usage error naming the flag, not the flag's default."""

    FIT = ["fit", "--response", "cpi", "--predictor", "unemployment"]

    @pytest.mark.parametrize("flag, argv", [
        ("--out", ["--out", "", *FIT]),
        ("--format", ["--format", "", "forecast",
                      "--scenario", str(DATA_DIR / "scenario_2005.json")]),
        ("--name", ["plot", "--series", "cpi", "--name", ""]),
        ("--cache-dir", ["--cache-dir", "", *FIT]),
    ])
    def test_is_a_usage_error(self, tmp_path, monkeypatch, capsys, flag, argv):
        monkeypatch.chdir(tmp_path)
        # refused before anything is read: a missing manifest goes unread
        for manifest in (DATA_DIR / "manifest.json", tmp_path / "missing.json"):
            assert run("--manifest", str(manifest), *argv) == 2
            assert capsys.readouterr().err.startswith(f"usage error: {flag} must not be empty\n")
        assert list(tmp_path.iterdir()) == []


class TestStrictJson:
    def test_constant_response_writes_null(self, tmp_path):
        # y is 0.01 every year, so its R^2 is undefined; RFC 8259 has no NaN
        for name, value in (("x", lambda i: 0.001 * i * (i % 3 + 1)), ("y", lambda i: 0.01)):
            rows = "".join(f"{1980 + i},{value(i)}\n" for i in range(20))
            (tmp_path / f"{name}.csv").write_text("year,value\n" + rows)
        (tmp_path / "manifest.json").write_text(json.dumps({"series": {
            name: {"path": f"{name}.csv", "kind": "unemployment", "units": "fraction"}
            for name in ("x", "y")}}))

        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        out = tmp_path / "o"
        with contextlib.redirect_stdout(io.StringIO()):
            assert run("--manifest", str(tmp_path / "manifest.json"), "--out", str(out),
                       "fit", "--response", "y", "--predictor", "x") == 0
        doc = json.loads((out / "fit.json").read_text(), parse_constant=refuse)
        assert doc["r2_annual"] is None


class TestForecast:
    def test_zero_growth_flat_at_intercepts(self, tmp_path):
        scenario = {"horizon": [2011, 2030],
                    "linear": {"start_year": 2010, "end_year": 2030,
                               "start": 1_000_000, "end": 1_000_000}}
        spath = tmp_path / "s.json"
        spath.write_text(json.dumps(scenario))
        out = tmp_path / "o"
        assert run("--out", str(out), "forecast", "--scenario", str(spath),
                   "--models", "eq8,eq9") == 0
        doc = json.loads((out / "report.json").read_text())
        pi = doc["paths"]["inflation[eq8]"]["values"]
        u = doc["paths"]["unemployment[eq9]"]["values"]
        assert all(v == pytest.approx(-0.0084, abs=1e-12) for v in pi)
        assert all(v == pytest.approx(0.0432, abs=1e-12) for v in u)

    def test_published_scenario_endpoints(self, japan_scenario_path, tmp_path):
        out = tmp_path / "o"
        assert run("--out", str(out), "--format", "csv,json,svg",
                   "forecast", "--scenario", str(japan_scenario_path),
                   "--models", "eq8,eq9") == 0
        doc = json.loads((out / "report.json").read_text())
        pi_2050 = doc["paths"]["inflation[eq8]"]["values"][-1]
        u_2050 = doc["paths"]["unemployment[eq9]"]["values"][-1]
        assert -0.024 <= pi_2050 <= -0.016
        assert 0.050 <= u_2050 <= 0.060
        assert (out / "forecast_inflation.svg").exists()
        assert (out / "forecast_unemployment.svg").exists()

    @pytest.mark.parametrize("formats", ["xml", "csv,xml"])
    def test_unknown_format(self, japan_scenario_path, tmp_path, capsys, formats):
        assert run("--out", str(tmp_path / "o"), "--format", formats,
                   "forecast", "--scenario", str(japan_scenario_path)) == 2
        assert capsys.readouterr().err.startswith(
            "usage error: unknown --format 'xml'; use csv, json or svg")
        assert not (tmp_path / "o").exists()

    def test_unknown_model(self, japan_scenario_path, tmp_path):
        assert run("--out", str(tmp_path / "o"), "forecast",
                   "--scenario", str(japan_scenario_path), "--models", "eq99") == 1


class TestPlot:
    def test_line_chart(self, tmp_path):
        out = tmp_path / "o"
        assert run("--manifest", str(DATA_DIR / "manifest.json"), "--out", str(out),
                   "plot", "--series", "cpi,dgdp") == 0
        doc = (out / "chart.svg").read_text()
        assert doc.startswith("<svg")
        assert doc.count("<polyline") == 2

    def test_scatter_with_regression(self, tmp_path):
        out = tmp_path / "o"
        assert run("--manifest", str(DATA_DIR / "manifest.json"), "--out", str(out),
                   "--window", "1982:2012",
                   "plot", "--series", "unemployment,cpi", "--mode", "scatter",
                   "--regression", "--name", "phillips.svg") == 0
        doc = (out / "phillips.svg").read_text()
        assert "<circle" in doc
        assert "<line" in doc

    def test_persons_series_ticks_are_not_percent(self, tmp_path):
        out = tmp_path / "o"
        assert run("--manifest", str(DATA_DIR / "manifest.json"), "--out", str(out),
                   "plot", "--series", "labor_force") == 0
        doc = (out / "chart.svg").read_text()
        y_ticks = re.findall(r'<text x="56" [^>]*text-anchor="end"[^>]*>([^<]*)</text>', doc)
        assert y_ticks and not any(t.endswith("%") for t in y_ticks)
        assert all(4e7 <= float(t) <= 7e7 for t in y_ticks)  # ~45M-66M persons

    def test_rate_series_ticks_are_percent(self, tmp_path):
        out = tmp_path / "o"
        assert run("--manifest", str(DATA_DIR / "manifest.json"), "--out", str(out),
                   "plot", "--series", "cpi,dgdp") == 0
        doc = (out / "chart.svg").read_text()
        y_ticks = re.findall(r'<text x="56" [^>]*text-anchor="end"[^>]*>([^<]*)</text>', doc)
        assert y_ticks and all(t.endswith("%") for t in y_ticks)

    def test_mixed_units_rejected(self, tmp_path):
        assert run("--manifest", str(DATA_DIR / "manifest.json"),
                   "--out", str(tmp_path / "o"),
                   "plot", "--series", "cpi,labor_force") == 1

    @pytest.mark.parametrize("series", ["cpi", "cpi,dgdp,unemployment"])
    @pytest.mark.parametrize("regression", [[], ["--regression"]])
    def test_scatter_needs_two_series(self, tmp_path, capsys, series, regression):
        assert run("--manifest", str(DATA_DIR / "manifest.json"), "--out", str(tmp_path / "o"),
                   "plot", "--series", series, "--mode", "scatter", *regression) == 1
        err = capsys.readouterr().err
        assert err == "error: scatter mode needs exactly two series (x then y)\n"
        assert not (tmp_path / "o").exists()

    def test_regression_needs_scatter_mode(self, tmp_path, capsys):
        assert run("--manifest", str(DATA_DIR / "manifest.json"), "--out", str(tmp_path / "o"),
                   "plot", "--series", "cpi", "--regression") == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: --regression needs --mode scatter")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("window", [[], ["--window", "1990:2000"]])
    def test_overlay_is_the_fit(self, monkeypatch, tmp_path, japan, window):
        seen = []
        real = svg.scatter_chart

        def capture(x, y, style=None, regression=None):
            seen.append(regression)
            return real(x, y, style=style, regression=regression)

        monkeypatch.setattr(svg, "scatter_chart", capture)
        assert run("--manifest", str(DATA_DIR / "manifest.json"), "--out", str(tmp_path / "o"),
                   *window, "plot", "--series", "unemployment,cpi", "--mode", "scatter",
                   "--regression") == 0
        spec = LinkSpec("cpi", (estimate.Predictor("unemployment"),),
                        window=(1990, 2000) if window else None)
        # bit for bit: the line is the fit's (intercept, slope)
        assert seen == [tuple(estimate.fit(spec, japan).coefficient_table().values())]

    @pytest.mark.parametrize("x, message", [
        # three years in common with y
        ([0.01, 0.02, 0.04], "error: sample of 3 too small for 2 coefficients"),
        ([0.03] * 12, "error: predictor 'x' has zero variance on the window"),
    ])
    def test_overlay_refuses_what_fit_refuses(self, tmp_path, capsys, x, message):
        ingest.write_csv_series(AnnualSeries(1990, x), tmp_path / "x.csv")
        ingest.write_csv_series(AnnualSeries(1980, [0.01 * i for i in range(26)]),
                                tmp_path / "y.csv")
        manifest = {"series": {
            name: {"path": f"{name}.csv", "kind": "unemployment", "units": "fraction"}
            for name in ("x", "y")}}
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        argv = ["--manifest", str(tmp_path / "manifest.json"), "--out", str(tmp_path / "o"),
                "plot", "--series", "x,y", "--mode", "scatter"]
        assert run(*argv) == 0
        capsys.readouterr()
        assert run(*argv, "--regression") == 1
        assert capsys.readouterr().err.startswith(message)


class TestPlotWindow:
    def test_window_outside_the_series_is_named_as_given(self, tmp_path, capsys):
        assert run("--manifest", str(DATA_DIR / "manifest.json"), "--out", str(tmp_path / "o"),
                   "--window", "1900:1910", "plot", "--series", "cpi") == 1
        err = capsys.readouterr().err
        assert err == "error: window 1900:1910 does not overlap series 'cpi' (1971..2012)\n"
        assert not (tmp_path / "o").exists()

    def test_reversed_window_is_empty(self, tmp_path, capsys):
        assert run("--manifest", str(DATA_DIR / "manifest.json"), "--out", str(tmp_path / "o"),
                   "--window", "2010:2000", "plot", "--series", "cpi") == 1
        assert capsys.readouterr().err == "error: empty window 2010:2000\n"

    def test_partly_overlapping_window_is_clipped(self, tmp_path, japan):
        out = tmp_path / "o"
        assert run("--manifest", str(DATA_DIR / "manifest.json"), "--out", str(out),
                   "--window", "2000:2030", "plot", "--series", "cpi") == 0
        clipped = svg.line_chart([japan["cpi"].window(2000, 2012)],
                                 style=svg.ChartStyle(title="cpi", percent_axis=True))
        assert (out / "chart.svg").read_text() == clipped


# the CLI commands of the benchmark's japan-cli workload (its seventh op,
# reproduce_japan.py, takes no global flag and runs in tests/test_scripts.py)
JAPAN_CLI = {
    "fit": ["--window", "1982:2012", "fit", "--response", "cpi", "--predictor", "unemployment"],
    "scan-lag": ["--window", "1982:2012", "scan-lag", "--response", "cpi",
                 "--predictor", "labor_force_growth", "--estimator", "cumulative"],
    "scan-break": ["scan-break", "--response", "cpi", "--predictor", "unemployment",
                   "--estimator", "cumulative", "--years", "1975:1994"],
    "diagnose": ["diagnose", "--response", "unemployment", "--predictor", "labor_force_growth",
                 "--estimator", "cumulative", "--break-year", "1977", "--share", "intercept",
                 "--adf-lags", "1"],
    "forecast": ["--format", "csv,json,svg", "forecast",
                 "--scenario", str(DATA_DIR / "scenario_2005.json"),
                 "--models", "eq7,eq8,eq9,eq10"],
    "plot": ["plot", "--series", "unemployment,cpi", "--mode", "scatter", "--regression"],
}


class TestGlobalFlags:
    """A global flag that the subcommand would not read is a usage error."""

    FORECAST = ["forecast", "--scenario", str(DATA_DIR / "scenario_2005.json")]
    FIT = ["fit", "--response", "cpi", "--predictor", "unemployment"]

    @pytest.mark.parametrize("flags, rest", [
        (["--format", "xml"], FIT),
        (["--format", "csv"], ["diagnose", "--response", "cpi", "--predictor", "unemployment"]),
        (["--format", "svg"], ["plot", "--series", "cpi"]),
        (["--format", "csv"], ["scan-break", "--response", "cpi", "--predictor", "unemployment",
                               "--years", "1975:1994"]),
        (["--format", "csv"], ["scan-lag", "--response", "cpi", "--predictor", "unemployment"]),
        (["--format", "csv"], ["fetch"]),
        (["--window", "1982:2012"], FORECAST),
        (["--window", "1982:2012"], ["fetch"]),
        (["--cache-dir", "cache"], FORECAST),
    ])
    def test_ignored_flag_is_refused(self, tmp_path, capsys, flags, rest):
        argv = ["--manifest", str(DATA_DIR / "manifest.json"), "--out", str(tmp_path / "o"),
                *flags, *rest]
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: {flags[0]} has no effect on {rest[0]};")
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_out_with_fetch_is_refused(self, tmp_path, capsys):
        # fetch writes only to the cache; an --out directory would stay empty
        assert run("--manifest", str(DATA_DIR / "manifest.json"), "--out", str(tmp_path / "o"),
                   "fetch") == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: --out has no effect on fetch;")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", sorted(JAPAN_CLI))
    def test_japan_cli_commands_exit_0(self, tmp_path, command):
        # every command gets --manifest, forecast included, which takes it unread
        argv = ["--manifest", str(DATA_DIR / "manifest.json"), "--out", str(tmp_path / "o"),
                *JAPAN_CLI[command]]
        with contextlib.redirect_stdout(io.StringIO()):
            assert run(*argv) == 0


class TestReadmeExamples:
    @pytest.mark.parametrize("argv", readme_cli_examples())
    def test_cli_example_exits_0(self, monkeypatch, tmp_path, argv):
        assert argv[0] == "lfphillips" and "--out" in argv
        argv = argv[1:]
        argv[argv.index("--out") + 1] = str(tmp_path / "out")
        monkeypatch.chdir(ROOT)  # the examples name data/ relative to the repository
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0


class TestFetchCommand:
    def test_warm_cache_roundtrip(self, tmp_path):
        payload = "year,value\n1980,2.0\n1981,3.0\n"
        cache = tmp_path / "cache"
        cache.mkdir()
        (cache / "lfs__u.csv").write_text(payload)
        manifest = {"series": {"u": {
            "remote": {"base_url": "http://example.invalid", "dataset": "lfs", "key": "u"},
            "kind": "unemployment", "units": "percent"}}}
        mpath = tmp_path / "manifest.json"
        mpath.write_text(json.dumps(manifest))
        assert run("--manifest", str(mpath), "--cache-dir", str(cache), "fetch") == 0
        # loaded through the cache without network
        out = tmp_path / "o"
        assert run("--manifest", str(mpath), "--cache-dir", str(cache),
                   "--out", str(out), "fit", "--response", "u",
                   "--predictor", "u") == 1  # self-regression is degenerate, data error

    def test_fetch_failure_no_cache(self, tmp_path):
        manifest = {"series": {"u": {
            "remote": {"base_url": "http://127.0.0.1:1", "dataset": "lfs", "key": "u"},
            "kind": "unemployment", "units": "percent"}}}
        mpath = tmp_path / "manifest.json"
        mpath.write_text(json.dumps(manifest))
        assert run("--manifest", str(mpath), "--cache-dir", str(tmp_path / "c"),
                   "fetch", "--timeout", "0.2") == 1

    @staticmethod
    def remote_manifest(tmp_path, base_url: str) -> Path:
        """A manifest of one remote series ``u`` at ``{base_url}/lfs/u.csv``."""
        manifest = {"series": {"u": {
            "remote": {"base_url": base_url, "dataset": "lfs", "key": "u"},
            "kind": "unemployment", "units": "percent"}}}
        mpath = tmp_path / "manifest.json"
        mpath.write_text(json.dumps(manifest))
        return mpath

    def test_failed_forced_fetch_keeps_the_cache(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        cache.mkdir()
        (cache / "lfs__u.csv").write_text("year,value\n1980,2.0\n1981,3.0\n")
        before = (cache / "lfs__u.csv").read_bytes()
        mpath = self.remote_manifest(tmp_path, "http://127.0.0.1:1")
        assert run("--manifest", str(mpath), "--cache-dir", str(cache),
                   "fetch", "--force", "--timeout", "0.2") == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: series 'u': fetch of http://127.0.0.1:1/lfs/u.csv failed")
        assert (cache / "lfs__u.csv").read_bytes() == before
        assert list(cache.iterdir()) == [cache / "lfs__u.csv"]

    def test_every_name_is_checked_before_any_fetch(self, monkeypatch, tmp_path, capsys):
        fetched = []
        monkeypatch.setattr(ingest, "fetch_payload", lambda desc, **kwargs: fetched.append(desc))
        mpath = self.remote_manifest(tmp_path, "http://127.0.0.1:1")
        cache = tmp_path / "cache"
        assert run("--manifest", str(mpath), "--cache-dir", str(cache),
                   "fetch", "--series", "u,zz") == 1
        assert capsys.readouterr().err == "error: series 'zz' not in manifest\n"
        assert fetched == []
        assert not cache.exists()

    def test_fetch_and_fit_name_the_series_of_a_malformed_payload(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        cache.mkdir()
        (cache / "lfs__u.csv").write_text("Not Found")
        mpath = self.remote_manifest(tmp_path, "http://example.invalid")
        prefix = "error: series 'u': malformed payload from http://example.invalid/lfs/u.csv: "
        for command in (["fetch"], ["--out", str(tmp_path / "o"), "fit", "--response", "u",
                                    "--predictor", "u"]):
            assert run("--manifest", str(mpath), "--cache-dir", str(cache), *command) == 1
            assert capsys.readouterr().err.startswith(prefix)

    @pytest.mark.parametrize("command", [["fetch"], ["--out", "o", "plot", "--series", "u"]])
    def test_url_without_a_scheme_names_the_series(self, monkeypatch, tmp_path, capsys,
                                                   command):
        monkeypatch.chdir(tmp_path)
        mpath = self.remote_manifest(tmp_path, "data.example/api")
        assert run("--manifest", str(mpath), "--cache-dir", "cache", *command) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: series 'u': fetch of data.example/api/lfs/u.csv failed and "
                       "no cache present: unknown url type: 'data.example/api/lfs/u.csv'\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.json"]

    @pytest.mark.parametrize("command", [["fetch"], ["--out", "o", "plot", "--series", "u"]])
    def test_cache_that_is_not_utf8_names_the_series_and_the_file(self, monkeypatch, tmp_path,
                                                                  capsys, command):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cache").mkdir()
        (tmp_path / "cache" / "lfs__u.csv").write_bytes(b"year,value\n1980,\xff\n")
        mpath = self.remote_manifest(tmp_path, "http://example.invalid")
        assert run("--manifest", str(mpath), "--cache-dir", "cache", *command) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: series 'u': cannot read cache file "
                              f"{Path('cache', 'lfs__u.csv')}: 'utf-8' codec can't decode")
        assert not (tmp_path / "o").exists()

    def test_payload_that_is_not_utf8_names_the_series_and_the_url(self, monkeypatch, tmp_path,
                                                                   capsys):
        monkeypatch.setattr(urllib.request, "urlopen",
                            lambda url, timeout: io.BytesIO(b"year,value\n1980,\xff\n"))
        mpath = self.remote_manifest(tmp_path, "http://example.invalid")
        cache = tmp_path / "cache"
        assert run("--manifest", str(mpath), "--cache-dir", str(cache), "fetch") == 1
        assert capsys.readouterr().err.startswith(
            "error: series 'u': malformed payload from http://example.invalid/lfs/u.csv: "
            "'utf-8' codec can't decode")
        assert not cache.exists()

    def test_relative_cache_resolves_against_the_manifest(self, monkeypatch, tmp_path):
        def no_fetch(*args, **kwargs):
            raise AssertionError("a warm cache was fetched")

        monkeypatch.setattr(urllib.request, "urlopen", no_fetch)
        root = tmp_path / "m"
        (root / "cache").mkdir(parents=True)
        (root / "cache" / "u.csv").write_text(
            "year,value\n" + "".join(f"{1990 + i},{2.0 + 0.1 * i}\n" for i in range(10)))
        remote = {"base_url": "http://127.0.0.1:1", "dataset": "lfs", "key": "u",
                  "cache": "cache/u.csv"}
        manifest = {"series": {"u": {"remote": remote, "kind": "unemployment",
                                     "units": "percent"}}}
        (root / "manifest.json").write_text(json.dumps(manifest))
        for cwd, mpath in ((root, "manifest.json"), (tmp_path, "m/manifest.json")):
            monkeypatch.chdir(cwd)
            out = tmp_path / f"out-{cwd.name}"
            with contextlib.redirect_stdout(io.StringIO()):
                assert run("--manifest", mpath, "--cache-dir", str(tmp_path / "cold"),
                           "--out", str(out), "plot", "--series", "u") == 0
            assert (out / "chart.svg").exists()
        assert not (tmp_path / "cold").exists()


class TestDeterminism:
    def _artifacts(self, root: Path) -> dict[str, bytes]:
        return {p.name: p.read_bytes() for p in sorted(root.iterdir())}

    def test_fit_byte_identical(self, break_fixture, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run("--manifest", str(break_fixture), "--out", str(out),
                       "fit", "--response", "y", "--predictor", "x",
                       "--break-year", "1998", "--share", "intercept") == 0
            outs.append(self._artifacts(out))
        assert outs[0] == outs[1]

    def test_forecast_and_svg_byte_identical(self, japan_scenario_path, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run("--out", str(out), "--format", "csv,json,svg",
                       "forecast", "--scenario", str(japan_scenario_path),
                       "--models", "eq7,eq8,eq9") == 0
            outs.append(self._artifacts(out))
        assert outs[0] == outs[1]
        assert any(n.endswith(".svg") for n in outs[0])

    # sha256 of each artifact of the eq7-eq10 forecast below; the forecast
    # path is pure Python (math and string formatting), so these hold for
    # every numpy version
    FORECAST_SHA256 = {
        "forecast_inflation.svg":
            "ad674ce717640c61de69d5546a105e37486a977ac42360ecb8c26cff24db4c93",
        "forecast_unemployment.svg":
            "002ba459c3f156f5a5178821edbf553e0ea7b470a211a2b032c24f127744c19b",
        "report.csv": "16df5e88a61ecba70e2540d7105bb2147fb77134643bff48c9d30efd493e0a9f",
        "report.json": "606941396413c37beef2d948c8511b4be3225351060e03fcf1455eac264dd23c",
        "scenario.csv": "c254e1dc5872a1800c0877799b8b5154e04156da166b082c35f08865fabef371",
    }

    def test_forecast_bytes_are_pinned(self, japan_scenario_path, tmp_path):
        out = tmp_path / "o"
        assert run("--out", str(out), "--format", "csv,json,svg",
                   "forecast", "--scenario", str(japan_scenario_path),
                   "--models", "eq7,eq8,eq9,eq10") == 0
        digests = {name: hashlib.sha256(data).hexdigest()
                   for name, data in self._artifacts(out).items()}
        assert digests == self.FORECAST_SHA256

    # sha256 of the scatter chart below; like the forecast charts, it is drawn
    # without numpy arithmetic
    SCATTER_SHA256 = "b42d8f45a82ccd7b201429c22dc36bfd587bedc18618471a81e4362ff47cc89c"

    def test_scatter_bytes_are_pinned(self, tmp_path):
        out = tmp_path / "o"
        assert run("--manifest", str(DATA_DIR / "manifest.json"), "--out", str(out),
                   "plot", "--series", "unemployment,cpi", "--mode", "scatter") == 0
        digest = hashlib.sha256((out / "chart.svg").read_bytes()).hexdigest()
        assert digest == self.SCATTER_SHA256

    # sha256 of two time charts; a time chart does only Python float arithmetic
    LINE_SHA256 = {
        "cpi,dgdp": "f0fea6af875102d1116a4f7185a06fe08e10a5e02aa1c6268a7cea5904e906cf",
        "labor_force": "01b34a9ab205e0e42540ff78d71bae3c60c3025a8edc7f18bc930ff49fe92aa3",
    }

    @pytest.mark.parametrize("series", sorted(LINE_SHA256))
    def test_line_bytes_are_pinned(self, tmp_path, series):
        out = tmp_path / "o"
        assert run("--manifest", str(DATA_DIR / "manifest.json"), "--out", str(out),
                   "plot", "--series", series) == 0
        digest = hashlib.sha256((out / "chart.svg").read_bytes()).hexdigest()
        assert digest == self.LINE_SHA256[series]

    def test_plot_byte_identical(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run("--manifest", str(DATA_DIR / "manifest.json"), "--out", str(out),
                       "plot", "--series", "cpi,dgdp") == 0
            outs.append(self._artifacts(out))
        assert outs[0] == outs[1]


class TestAtomicArtifacts:
    def test_failed_serializer_keeps_previous_artifact(self, japan_scenario_path, tmp_path,
                                                       monkeypatch, capsys):
        out = tmp_path / "o"
        argv = ("--out", str(out), "--format", "csv,json", "forecast",
                "--scenario", str(japan_scenario_path), "--models", "eq8,eq9")
        assert run(*argv) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        # the text cannot be encoded, so writing it fails part-way
        real = forecast.report_to_json
        monkeypatch.setattr(forecast, "report_to_json", lambda r: real(r) + "\ud800")
        assert run(*argv) == 1
        assert "Traceback" not in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_failed_command_writes_nothing(self, japan_scenario_path, tmp_path, monkeypatch,
                                           capsys):
        # the reports are built before the chart fails, and none is written
        def broken_chart(*args, **kwargs):
            raise InputError("chart failed")

        monkeypatch.setattr(svg, "line_chart", broken_chart)
        out = tmp_path / "o"
        assert run("--out", str(out), "--format", "csv,json,svg", "forecast",
                   "--scenario", str(japan_scenario_path)) == 1
        assert capsys.readouterr() == ("", "error: chart failed\n")
        assert not out.exists()

    def test_artifact_mode_matches_write_text(self, line_fixture, tmp_path):
        out = tmp_path / "o"
        assert run("--manifest", str(line_fixture), "--out", str(out),
                   "fit", "--response", "y", "--predictor", "x") == 0
        sibling = out / "sibling.txt"
        sibling.write_text("x\n", encoding="utf-8")
        mode = sibling.stat().st_mode & 0o777
        assert (out / "fit.json").stat().st_mode & 0o777 == mode
        assert (out / "residuals.csv").stat().st_mode & 0o777 == mode


class TestSpecParsing:
    """Malformed spec fields end in exit 1 with a message naming the field."""

    def run_spec(self, tmp_path, command, spec):
        spath = tmp_path / "spec.json"
        spath.write_text(json.dumps(spec))
        return run("--manifest", str(DATA_DIR / "manifest.json"), "--out", str(tmp_path / "o"),
                   command, "--spec", str(spath))

    def test_shared_that_is_a_string(self, tmp_path, capsys):
        spec = {"response": "cpi", "predictors": [{"name": "unemployment"}],
                "break_year": 1982, "shared": "intercept"}
        assert self.run_spec(tmp_path, "fit", spec) == 1
        err = capsys.readouterr().err
        assert '"shared" must be a list' in err and "'intercept'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("spec, message", [
        ({"response": "cpi", "predictors": [{"name": "unemployment"}], "estimatr": "cumulative"},
         "spec has unknown key 'estimatr'"),
        ({"response": "cpi", "predictors": [{"name": "unemployment", "lags": 1}]},
         "predictor has unknown key 'lags'"),
        ({"response": "cpi", "predictors": [{"name": "intercept"}]},
         "predictor 'intercept' is the name of the constant term"),
        ("cpi", "spec must be a JSON object"),
        ({"predictors": [{"name": "unemployment"}]}, "spec is missing 'response'"),
        ({"response": "cpi", "predictors": {"name": "unemployment"}},
         '"predictors" must be a list'),
        ({"response": "cpi", "predictors": ["unemployment"]}, "predictor must be a JSON object"),
        ({"response": "cpi", "predictors": [{"name": "unemployment"}], "shared": ["intercept"]},
         '"shared" [\'intercept\'] needs a "break_year"'),
        ({"response": "cpi", "predictors": [{"name": "unemployment"}], "break_year": 1990,
          "shared": ["unemployment", "unemployment"]},
         "shared coefficient 'unemployment' is named more than once"),
    ])
    def test_refused_spec(self, tmp_path, capsys, spec, message):
        assert self.run_spec(tmp_path, "fit", spec) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}")
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["fit", "scan-lag"])
    def test_one_series_at_two_lags(self, tmp_path, capsys, command):
        spec = {"response": "cpi",
                "predictors": [{"name": "unemployment"}, {"name": "unemployment", "lag": 1}]}
        assert self.run_spec(tmp_path, command, spec) == 1
        err = capsys.readouterr().err
        assert "predictor 'unemployment' is named more than once" in err
        assert "Traceback" not in err

    def test_inline_share_named_twice(self, tmp_path, capsys):
        assert run("--manifest", str(DATA_DIR / "manifest.json"), "--out", str(tmp_path / "o"),
                   "fit", "--response", "cpi", "--predictor", "unemployment",
                   "--break-year", "1990", "--share", "unemployment",
                   "--share", "unemployment") == 1
        err = capsys.readouterr().err
        assert err == "error: shared coefficient 'unemployment' is named more than once\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flag", ["unemployment:1.5", "unemployment:x"])
    def test_inline_predictor_with_a_bad_lag(self, tmp_path, capsys, flag):
        assert run("--manifest", str(DATA_DIR / "manifest.json"), "--out", str(tmp_path / "o"),
                   "scan-lag", "--response", "cpi", "--predictor", flag) == 1
        err = capsys.readouterr().err
        lag = flag.partition(":")[2]
        assert f"--predictor '{flag}': lag '{lag}' is not an integer" in err
        assert "Traceback" not in err


def japan_manifest(tmp_path, **extra) -> Path:
    """A copy of the data/japan manifest, its paths absolute, with the entries
    of ``extra`` added or replaced."""
    doc = json.loads((DATA_DIR / "manifest.json").read_text(encoding="utf-8"))
    for entry in doc["series"].values():
        entry["path"] = str(DATA_DIR / entry["path"])
    doc["series"].update(extra)
    mpath = tmp_path / "manifest.json"
    mpath.write_text(json.dumps(doc), encoding="utf-8")
    return mpath


FIT_CPI = ["fit", "--response", "cpi", "--predictor", "unemployment"]


class TestReadsOnlyNamedSeries:
    """A command reads only the manifest series that it names; the other
    entries are checked but never read or fetched."""

    def test_unused_missing_file(self, tmp_path, capsys):
        mpath = japan_manifest(tmp_path, unused={"path": "missing.csv", "kind": "unemployment",
                                                 "units": "percent"})
        outs = []
        for name, manifest in (("clean", DATA_DIR / "manifest.json"), ("unused", mpath)):
            out = tmp_path / name
            assert run("--manifest", str(manifest), "--out", str(out), *FIT_CPI) == 0
            outs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert sorted(outs[0]) == ["fit.json", "residuals.csv"]
        assert outs[0] == outs[1]

    def test_unused_cold_remote_is_not_fetched(self, monkeypatch, tmp_path):
        def no_fetch(*args, **kwargs):
            raise AssertionError("fetch_payload called for an unused entry")

        monkeypatch.setattr(ingest, "fetch_payload", no_fetch)
        remote = {"base_url": "http://127.0.0.1:1", "dataset": "lfs", "key": "u"}
        mpath = japan_manifest(tmp_path, unused={"remote": remote, "kind": "unemployment",
                                                 "units": "percent"})
        with contextlib.redirect_stdout(io.StringIO()):
            assert run("--manifest", str(mpath), "--cache-dir", str(tmp_path / "cold"),
                       "--out", str(tmp_path / "o"), *FIT_CPI) == 0
        assert not (tmp_path / "cold").exists()

    @pytest.mark.parametrize("command, files", [
        ("fit", ["cpi_inflation.csv", "unemployment.csv"]),
        ("scan-lag", ["cpi_inflation.csv", "labor_force.csv"]),
        ("scan-break", ["cpi_inflation.csv", "unemployment.csv"]),
        ("diagnose", ["labor_force.csv", "unemployment.csv"]),
        ("plot", ["cpi_inflation.csv", "unemployment.csv"]),
        ("forecast", []),
    ])
    def test_files_each_command_reads(self, monkeypatch, tmp_path, command, files):
        read = []
        real = ingest.read_csv_series

        def spy(source, *args, **kwargs):
            if isinstance(source, os.PathLike):
                read.append(Path(source).name)
            return real(source, *args, **kwargs)

        monkeypatch.setattr(ingest, "read_csv_series", spy)
        argv = ["--manifest", str(DATA_DIR / "manifest.json"), "--out", str(tmp_path / "o"),
                *JAPAN_CLI[command]]
        with contextlib.redirect_stdout(io.StringIO()):
            assert run(*argv) == 0
        assert sorted(read) == files

    def test_bad_row_names_the_series_and_the_file(self, tmp_path, capsys):
        bad = tmp_path / "cpi_bad.csv"
        bad.write_text("year,value\n2000,1.0\n2001,abc\n", encoding="utf-8")
        mpath = japan_manifest(tmp_path, cpi={"path": str(bad), "kind": "cpi-inflation",
                                              "units": "percent"})
        argv = ["--manifest", str(mpath), "--out", str(tmp_path / "o")]
        with contextlib.redirect_stdout(io.StringIO()):
            assert run(*argv, "fit", "--response", "unemployment",
                       "--predictor", "labor_force_growth") == 0
        assert run(*argv, *FIT_CPI) == 1
        err = capsys.readouterr().err
        assert err == f"error: series 'cpi' ({bad}): row 3: unparsable row '2001,abc'\n"
        # the spec is checked before any named series is read
        assert run(*argv, "fit", "--predictor", "unemployment") == 2

    # the fuzzed entry is the one that the command reads; TestManifestFuzz's
    # fit never loads it
    @settings(max_examples=200, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(entry=manifest_entries())
    def test_named_fuzzed_entry_ends_in_exit_0_or_1(self, monkeypatch, tmp_path, entry):
        monkeypatch.setattr(ingest, "fetch_payload",
                            lambda *args, **kwargs: "year,value\n2000,1.0\n2001,2.0\n")
        mpath = tmp_path / "manifest.json"
        mpath.write_text(json.dumps({"series": {"x": entry}}), encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = run("--manifest", str(mpath), "--out", str(tmp_path / "o"),
                       "plot", "--series", "x")
        assert code in (0, 1)
        assert "Traceback" not in err.getvalue()
        if code == 1:
            assert err.getvalue().startswith("error: ")


class TestScanBreakYear:
    """scan-break chooses the break year, so a given one is refused, not dropped."""

    SCAN = ["scan-break", "--response", "cpi", "--predictor", "unemployment",
            "--years", "1975:1994"]

    def test_inline_break_year(self, tmp_path, capsys):
        assert run("--manifest", str(DATA_DIR / "manifest.json"), "--out", str(tmp_path / "o"),
                   *self.SCAN, "--break-year", "1990") == 1
        err = capsys.readouterr().err
        assert err.startswith('error: "break_year" 1990')
        assert not (tmp_path / "o").exists()

    def test_spec_break_year(self, tmp_path, capsys):
        spath = tmp_path / "spec.json"
        spath.write_text(json.dumps({"response": "cpi", "predictors": [{"name": "unemployment"}],
                                     "break_year": 1990}))
        assert run("--manifest", str(DATA_DIR / "manifest.json"), "--out", str(tmp_path / "o"),
                   "scan-break", "--spec", str(spath), "--years", "1975:1994") == 1
        assert capsys.readouterr().err.startswith('error: "break_year" 1990')


class TestSpecFlagsWithSpec:
    """--spec replaces the inline spec flags, so one given with it is refused, not dropped."""

    @pytest.mark.parametrize("flag, value", [
        ("--response", "dgdp"), ("--predictor", "labor_force_growth"), ("--estimator", "ols"),
        ("--break-year", "1990"), ("--share", "intercept"),
    ])
    def test_inline_flag_is_refused(self, tmp_path, capsys, flag, value):
        spath = tmp_path / "spec.json"
        spath.write_text(json.dumps({"response": "cpi", "predictors": [{"name": "unemployment"}]}))
        assert run("--manifest", str(DATA_DIR / "manifest.json"), "--out", str(tmp_path / "o"),
                   "fit", "--spec", str(spath), flag, value) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: {flag} has no effect with --spec;")
        assert not (tmp_path / "o").exists()


class TestOneArtifactWriter:
    """``main`` is the one writer of the CLI: a subcommand returns its artifacts
    and its summary line, and only ``main`` creates --out, writes and prints."""

    # each name a write, a print or a directory creation refers to, and what it does
    ACTIONS = {"write_atomic": "write", "write_csv_series": "write", "write_text": "write",
               "write_bytes": "write", "open": "write", "print": "print", "mkdir": "mkdir",
               "makedirs": "mkdir"}

    @classmethod
    def owners(cls) -> dict[str, set[str]]:
        """Each action of ``ACTIONS`` mapped to the top-level functions of
        ``cli.py`` that refer to it; one outside any function is ``<module>``."""
        owners: dict[str, set[str]] = {"write": set(), "print": set(), "mkdir": set()}
        tree = ast.parse((ROOT / "src" / "lfphillips" / "cli.py").read_text(encoding="utf-8"))
        for top in tree.body:
            named = isinstance(top, (ast.FunctionDef, ast.ClassDef))
            owner = top.name if named else "<module>"
            for node in ast.walk(top):
                name = (node.id if isinstance(node, ast.Name)
                        else node.attr if isinstance(node, ast.Attribute) else None)
                if name in cls.ACTIONS:
                    owners[cls.ACTIONS[name]].add(owner)
        return owners

    def test_only_main_writes_prints_and_creates_a_directory(self):
        assert self.owners() == {"write": {"main"}, "print": {"main"}, "mkdir": {"main"}}


class TestOneSpanRule:
    """Every span of years, given by a flag, a spec file, a scenario or a caller
    of ``build_scenario``, is checked by ``ingest.json_span``: a reversed span is
    empty, and a malformed one names the flag or field."""

    # where a span is given, and the name that its errors carry
    WHERE = {"--window": "window", "--lags": "lag range", "--years": "break-year range",
             "spec": "window", "scenario": "scenario 'horizon'", "build_scenario": "horizon"}

    @staticmethod
    def outcome(tmp_path, capsys, where, span):
        """The exit code and stderr of a span given at ``where``; ``span`` is the
        flag's text or a JSON value. ``build_scenario`` gives 1 and the error line
        of its InputError, as ``main`` prints it."""
        if where == "build_scenario":
            with pytest.raises(InputError) as exc:
                forecast.build_scenario(AnnualSeries(2000, (1e6,) * 61, units="persons"),
                                        horizon=span)
            return 1, f"error: {exc.value}\n"
        inline = ("--response", "cpi", "--predictor", "unemployment")
        argv = {"--window": ("--window", span, "fit", *inline),
                "--lags": ("scan-lag", *inline, f"--lags={span}"),
                "--years": ("scan-break", *inline, f"--years={span}")}.get(where)
        path = tmp_path / f"{where}.json"
        if where == "spec":
            path.write_text(json.dumps({"response": "cpi", "predictors": [{"name": "unemployment"}],
                                        "window": span}))
            argv = ("fit", "--spec", str(path))
        elif where == "scenario":
            path.write_text(json.dumps({"horizon": span, "linear": {
                "start_year": 2000, "end_year": 2060, "start": 1e6, "end": 9e5}}))
            argv = ("forecast", "--scenario", str(path))
        manifest = () if where == "scenario" else ("--manifest", str(DATA_DIR / "manifest.json"))
        code = run(*manifest, "--out", str(tmp_path / "o"), *argv)
        assert not (tmp_path / "o").exists()
        return code, capsys.readouterr().err

    @pytest.mark.parametrize("where", list(WHERE))
    def test_reversed_span_is_empty(self, tmp_path, capsys, where):
        span = "2010:2000" if where.startswith("--") else [2010, 2000]
        assert self.outcome(tmp_path, capsys, where, span) == (
            1, f"error: empty {self.WHERE[where]} 2010:2000\n")

    @pytest.mark.parametrize("where", list(WHERE))
    @pytest.mark.parametrize("text, value, message", [
        ("2000", [2000], "{} must be two years, got "),
        ("2000:2010:2020", [2000, 2010, 2020], "{} must be two years, got "),
        ("", 2000, "{} must be two years, got "),
        ("a:2000", ["a", 2000], "{} year must be an integer, got 'a'"),
        ("2000:20x0", [2000, "20x0"], "{} year must be an integer, got '20x0'"),
        ("1990.5:2000", [1990.5, 2000], "{} year must be an integer, got "),
    ])
    def test_malformed_span_names_its_flag_or_field(self, tmp_path, capsys, where, text, value,
                                                    message):
        span = text if where.startswith("--") else value
        code, err = self.outcome(tmp_path, capsys, where, span)
        assert code == 1
        assert err.startswith("error: " + message.format(self.WHERE[where]))
        assert "Traceback" not in err

    def test_negative_start_is_given_with_an_equals_sign(self, tmp_path, capsys):
        argv = ("--manifest", str(DATA_DIR / "manifest.json"), "--out", str(tmp_path / "o"),
                "scan-lag", "--response", "cpi", "--predictor", "unemployment")
        assert run(*argv, "--lags=-1:1") == 0
        assert capsys.readouterr().out == "best lag: 0\n"
        # argparse reads a value that starts with "-" as a flag
        with pytest.raises(SystemExit) as exc:
            run(*argv, "--lags", "-1:1")
        assert exc.value.code == 2
        assert "expected one argument" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag, span", [("scan-lag", "--lags", " -3 : 3 "),
                                                     ("scan-break", "--years", "1975 :1994")])
    def test_spaces_around_a_year_are_read_as_int_reads_them(self, tmp_path, command, flag,
                                                             span):
        argv = ("--manifest", str(DATA_DIR / "manifest.json"), command,
                "--response", "cpi", "--predictor", "unemployment")
        assert run("--out", str(tmp_path / "a"), *argv, f"{flag}={span}") == 0
        assert run("--out", str(tmp_path / "b"), *argv, f"{flag}={span.replace(' ', '')}") == 0
        assert ({p.name: p.read_bytes() for p in (tmp_path / "a").iterdir()}
                == {p.name: p.read_bytes() for p in (tmp_path / "b").iterdir()})


class TestScanLagMissingSeries:
    """A missing series fails every lag alike, so scan-lag names it as fit does."""

    @pytest.mark.parametrize("response, predictor, message", [
        ("cpi", "nope", "predictor series 'nope' missing from data"),
        ("nope", "unemployment", "response series 'nope' missing from data"),
    ])
    def test_missing_series_is_named(self, tmp_path, capsys, response, predictor, message):
        for command in ("fit", "scan-lag"):
            assert run("--manifest", str(DATA_DIR / "manifest.json"), "--out",
                       str(tmp_path / "o"), command, "--response", response, "--predictor",
                       predictor, *(["--lags=-1:1"] if command == "scan-lag" else [])) == 1
            assert capsys.readouterr().err == f"error: {message}\n"
            assert not (tmp_path / "o").exists()


class TestPlotName:
    """``plot --name`` is a file name inside --out, never a path."""

    @pytest.mark.parametrize("name", ["sub/x.svg", "../escaped.svg", "..", ".", "x.svg/"])
    def test_name_that_is_not_bare_is_a_usage_error(self, tmp_path, capsys, name):
        out = tmp_path / "a" / "o"
        # checked before the manifest is read: a missing manifest goes unread
        for manifest in (DATA_DIR / "manifest.json", tmp_path / "missing.json"):
            assert run("--manifest", str(manifest), "--out", str(out),
                       "plot", "--series", "cpi", "--name", name) == 2
            assert capsys.readouterr().err.startswith(
                f"usage error: --name {name!r} must be a bare file name\n")
        assert not (tmp_path / "a").exists()
        assert list(tmp_path.iterdir()) == []

    def test_absolute_name_is_a_usage_error(self, tmp_path, capsys):
        name = str(tmp_path / "abs.svg")
        assert run("--manifest", str(DATA_DIR / "manifest.json"), "--out", str(tmp_path / "o"),
                   "plot", "--series", "cpi", "--name", name) == 2
        assert list(tmp_path.iterdir()) == []

    def test_bare_name_is_written_inside_out(self, tmp_path, capsys):
        assert run("--manifest", str(DATA_DIR / "manifest.json"), "--out", str(tmp_path / "o"),
                   "plot", "--series", "cpi", "--name", "..x.svg") == 0
        assert [p.name for p in (tmp_path / "o").iterdir()] == ["..x.svg"]
