import ast
import http.client
import http.server
import inspect
import io
import json
import math
import threading
import urllib.request
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from lfphillips import ingest
from lfphillips.errors import InputError, ParseError, RetrievalError
from lfphillips.series import AnnualSeries


class TestReadCsvSeries:
    def test_percent_conversion(self):
        s = ingest.read_csv_series("year,value\n1980,2.0\n1981,3.0", "unemployment", "percent")
        assert s.start_year == 1980
        assert s.values == (0.02, 0.03)
        assert s.units == "fraction"

    def test_gap_names_missing_year(self):
        with pytest.raises(InputError, match="1981"):
            ingest.read_csv_series("year,value\n1980,1.0\n1982,2.0", "unemployment", "percent")

    def test_thousands_to_persons(self):
        s = ingest.read_csv_series(
            "year,value\n1980,67000\n1981,66900", "labor-force", "thousands"
        )
        assert s.values == (67_000_000.0, 66_900_000.0)
        assert s.units == "persons"

    def test_duplicate_year(self):
        with pytest.raises(InputError, match="duplicate"):
            ingest.read_csv_series("year,value\n1980,1\n1980,2", "unemployment", "percent")

    def test_unparsable_row_reports_number(self):
        with pytest.raises(InputError, match="row 3"):
            ingest.read_csv_series("year,value\n1980,1\n1981,abc", "unemployment", "percent")

    def test_unknown_units(self):
        with pytest.raises(InputError):
            ingest.read_csv_series("year,value\n1980,1", "unemployment", "furlongs")

    def test_missing_header(self):
        with pytest.raises(InputError, match="header"):
            ingest.read_csv_series("1980,1.0\n1981,2.0", "unemployment", "percent")

    def test_crlf(self):
        s = ingest.read_csv_series("year,value\r\n1980,2.0\r\n1981,3.0", "unemployment",
                                   "percent")
        assert s.values == (0.02, 0.03)

    def test_inflation_units_tag(self):
        s = ingest.read_csv_series("year,value\n1980,2.0", "cpi-inflation", "percent")
        assert s.units == "fraction-per-year"

    def test_roundtrip_bit_identical(self, tmp_path):
        s = ingest.read_csv_series("year,value\n1980,2.137\n1981,-3.001", "unemployment",
                                   "percent")
        path = tmp_path / "u.csv"
        ingest.write_csv_series(s, path)
        again = ingest.read_csv_series(path, "unemployment", "fraction")
        assert again.values == s.values
        ingest.write_csv_series(again, tmp_path / "u2.csv")
        assert (tmp_path / "u2.csv").read_bytes() == path.read_bytes()


class TestWriteCsvSeries:
    # the examples share tmp_path; each one rewrites the file
    @settings(max_examples=200, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(start=st.integers(-3000, 3000),
           values=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                           min_size=1, max_size=20))
    def test_finite_floats_round_trip_bit_equal(self, tmp_path, start, values):
        path = tmp_path / "s.csv"
        ingest.write_csv_series(AnnualSeries(start, values, units="fraction"), path)
        again = ingest.read_csv_series(path, "unemployment", "fraction")
        assert again.start_year == start
        # hex compares bits: it tells -0.0 from 0.0
        assert [v.hex() for v in again.values] == [float(v).hex() for v in values]


SRC = Path(ingest.__file__).resolve().parent


class TestFileFormatOwner:
    """``ingest`` owns every file format: the other modules parse and write
    JSON only through it, and no module reaches into a sibling's private names."""

    def test_only_ingest_imports_json(self):
        # so only ingest can call json.loads or json.dumps
        users = set()
        for path in sorted(SRC.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import) and any(a.name == "json" for a in node.names):
                    users.add(path.name)
                if isinstance(node, ast.ImportFrom) and node.module == "json":
                    users.add(path.name)
        assert users == {"ingest.py"}

    def test_no_private_import_between_modules(self):
        private = []
        for path in sorted(SRC.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.ImportFrom) and (
                        node.level or (node.module or "").startswith("lfphillips")):
                    private += [f"{path.name}: {a.name}" for a in node.names
                                if a.name.startswith("_")]
        assert private == []


class TestOneSeriesReader:
    """``read_entry`` is the one reader of a series: a manifest entry, a
    scenario CSV and ``fetch`` all parse and fetch through it."""

    @staticmethod
    def readers() -> dict[str, set[str]]:
        """``read_csv_series`` and ``fetch_payload``, each mapped to the
        ``<module>.<function>`` names in the package that read it; a read
        outside any top-level function or class is ``<module>.<module>``."""
        readers: dict[str, set[str]] = {"read_csv_series": set(), "fetch_payload": set()}
        for path in sorted(SRC.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for top in tree.body:
                named = isinstance(top, (ast.FunctionDef, ast.ClassDef))
                owner = top.name if named else "<module>"
                for node in ast.walk(top):
                    name = (node.id if isinstance(node, ast.Name)
                            else node.attr if isinstance(node, ast.Attribute) else None)
                    if name in readers and isinstance(node.ctx, ast.Load):
                        readers[name].add(f"{path.stem}.{owner}")
        return readers

    def test_only_read_entry_parses_and_fetches(self):
        assert self.readers() == {"read_csv_series": {"ingest.read_entry"},
                                  "fetch_payload": {"ingest.read_entry"}}

    def test_only_load_manifest_takes_a_cache_directory(self):
        takers = {name for name, value in vars(ingest).items()
                  if inspect.isfunction(value) and value.__module__ == ingest.__name__
                  and "cache" in inspect.signature(value).parameters}
        assert takers == {"load_manifest"}
        retired = {"fetch_remote", "read_csv_file"}
        assert not retired & set(vars(ingest))
        assert not hasattr(ingest.RemoteDescriptor, "cache_file")


class TestManifest:
    def test_load_and_resolve(self, tmp_path):
        (tmp_path / "u.csv").write_text("year,value\n1980,2.0\n1981,3.0\n")
        manifest_doc = {
            "series": {"u": {"path": "u.csv", "kind": "unemployment", "units": "percent"}}
        }
        mpath = tmp_path / "manifest.json"
        mpath.write_text(json.dumps(manifest_doc))
        manifest = ingest.load_manifest(mpath)
        s = ingest.load_series(manifest, "u")
        assert s.values == (0.02, 0.03)

    def test_unknown_series(self, tmp_path):
        mpath = tmp_path / "manifest.json"
        mpath.write_text(json.dumps(
            {"series": {"u": {"path": "u.csv", "kind": "unemployment", "units": "percent"}}}
        ))
        with pytest.raises(InputError):
            ingest.load_series(ingest.load_manifest(mpath), "nope")

    def test_bad_kind(self, tmp_path):
        mpath = tmp_path / "manifest.json"
        mpath.write_text(json.dumps(
            {"series": {"u": {"path": "u.csv", "kind": "weather", "units": "percent"}}}
        ))
        with pytest.raises(InputError):
            ingest.load_manifest(mpath)

    def test_load_all_derives_labor_force_growth(self, japan):
        assert "labor_force_growth" in japan
        g = japan["labor_force_growth"]
        assert g.units == "fraction-per-year"
        assert g.start_year == japan["labor_force"].start_year + 1


PAYLOAD = "year,value\n1980,2.0\n1981,3.0\n"


class _Handler(http.server.BaseHTTPRequestHandler):
    hits = 0

    def do_GET(self):
        type(self).hits += 1
        if self.path.endswith("/u.csv"):
            body = PAYLOAD.encode()
            self.send_response(200)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        else:
            self.send_error(404)

    def log_message(self, *args):
        pass


@pytest.fixture()
def http_fixture():
    server = http.server.HTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _Handler.hits = 0
    yield f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


def remote_entry(base_url: str, cache: Path, dataset: str = "lfs",
                 key: str = "u") -> ingest.ManifestEntry:
    """A percent unemployment entry at ``{base_url}/{dataset}/{key}.csv``,
    cached where ``load_manifest`` would put it in the directory ``cache``."""
    desc = ingest.RemoteDescriptor(base_url, dataset, key, cache / f"{dataset}__{key}.csv")
    return ingest.ManifestEntry("unemployment", "percent", remote=desc)


def no_fetch(*args, **kwargs):
    raise AssertionError("a warm cache was fetched")


class TestFetchRemote:
    def test_fetch_then_cache_hit(self, http_fixture, tmp_path):
        entry = remote_entry(http_fixture, tmp_path)
        s1 = ingest.read_entry("series 'u'", entry)
        assert s1.values == (0.02, 0.03)
        assert _Handler.hits == 1
        s2 = ingest.read_entry("series 'u'", entry)
        assert s2 == s1
        assert _Handler.hits == 1  # warm cache, no network

    def test_cache_is_offline_safe(self, http_fixture, tmp_path):
        ingest.read_entry("series 'u'", remote_entry(http_fixture, tmp_path))
        dead = remote_entry("http://127.0.0.1:1", tmp_path)
        s = ingest.read_entry("series 'u'", dead)
        assert s.values == (0.02, 0.03)

    def test_404_no_cache(self, http_fixture, tmp_path):
        entry = remote_entry(http_fixture, tmp_path, key="missing")
        with pytest.raises(RetrievalError):
            ingest.read_entry("series 'u'", entry)

    def test_unreachable_no_cache(self, tmp_path):
        entry = remote_entry("http://127.0.0.1:1", tmp_path, dataset="x", key="y")
        with pytest.raises(RetrievalError):
            ingest.read_entry("series 'u'", entry, timeout=0.2)

    # a one-line payload is CSV text too, never a file name
    @pytest.mark.parametrize("payload", ["not,a,series\n", "year,value", "Not Found"])
    def test_malformed_payload(self, tmp_path, payload):
        entry = remote_entry("http://example.invalid", tmp_path, dataset="x", key="y")
        entry.remote.cache_path.write_text(payload)
        with pytest.raises(ParseError):
            ingest.read_entry("series 'u'", entry)

    def test_env_var_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv(ingest.CACHE_DIR_ENV, str(tmp_path / "alt"))
        assert ingest.cache_dir() == tmp_path / "alt"

    def test_stale_tmp_directory_does_not_block_the_fetch(self, monkeypatch, tmp_path):
        desc = remote_entry("http://example.invalid", tmp_path, dataset="x", key="y").remote
        target = desc.cache_path
        stale = target.with_suffix(target.suffix + ".tmp")
        stale.mkdir(parents=True)
        monkeypatch.setattr(urllib.request, "urlopen",
                            lambda url, timeout: io.BytesIO(PAYLOAD.encode()))
        assert ingest.fetch_payload(desc) == PAYLOAD
        assert target.read_text(encoding="utf-8") == PAYLOAD
        assert sorted(target.parent.iterdir()) == sorted([target, stale])

    @pytest.mark.parametrize("make, reason", [
        (lambda p: p.write_bytes(b"year,value\n1980,\xff\n"), "'utf-8' codec can't decode"),
        (lambda p: p.mkdir(), "Is a directory"),
    ], ids=["not-utf-8", "directory"])
    def test_unreadable_cache_names_the_series_and_the_file(self, monkeypatch, tmp_path,
                                                            make, reason):
        monkeypatch.setattr(urllib.request, "urlopen", no_fetch)
        entry = remote_entry("http://example.invalid", tmp_path)
        make(entry.remote.cache_path)
        with pytest.raises(RetrievalError) as info:
            ingest.read_entry("series 'u'", entry)
        assert str(info.value).startswith(
            f"series 'u': cannot read cache file {entry.remote.cache_path}: {reason}")

    def test_payload_that_is_not_utf8_names_the_series_and_the_url(self, monkeypatch, tmp_path):
        monkeypatch.setattr(urllib.request, "urlopen",
                            lambda url, timeout: io.BytesIO(b"year,value\n1980,\xff\n"))
        entry = remote_entry("http://example.invalid", tmp_path)
        with pytest.raises(ParseError) as info:
            ingest.read_entry("series 'u'", entry)
        assert str(info.value).startswith(
            "series 'u': malformed payload from http://example.invalid/lfs/u.csv: "
            "'utf-8' codec can't decode")
        assert list(tmp_path.iterdir()) == []

    def test_forced_fetch_of_a_payload_that_is_not_utf8_keeps_the_cache(self, monkeypatch,
                                                                       tmp_path):
        monkeypatch.setattr(urllib.request, "urlopen",
                            lambda url, timeout: io.BytesIO(b"\xff"))
        entry = remote_entry("http://example.invalid", tmp_path)
        entry.remote.cache_path.write_text(PAYLOAD, encoding="utf-8")
        with pytest.raises(ParseError):
            ingest.read_entry("series 'u'", entry, force=True)
        assert list(tmp_path.iterdir()) == [entry.remote.cache_path]
        assert entry.remote.cache_path.read_text(encoding="utf-8") == PAYLOAD

    def test_url_without_a_scheme_names_the_series_and_the_url(self, tmp_path):
        # urlopen refuses the URL before it opens a connection
        entry = remote_entry("data.example/api", tmp_path)
        with pytest.raises(RetrievalError) as info:
            ingest.read_entry("series 'u'", entry)
        assert str(info.value) == (
            "series 'u': fetch of data.example/api/lfs/u.csv failed and no cache present: "
            "unknown url type: 'data.example/api/lfs/u.csv'")
        assert list(tmp_path.iterdir()) == []

    def test_truncated_response_names_the_series_and_the_url(self, monkeypatch, tmp_path):
        class Truncated(io.BytesIO):
            def read(self, *args):
                raise http.client.IncompleteRead(b"year,va", 20)

        monkeypatch.setattr(urllib.request, "urlopen", lambda url, timeout: Truncated())
        entry = remote_entry("http://example.invalid", tmp_path)
        with pytest.raises(RetrievalError) as info:
            ingest.read_entry("series 'u'", entry)
        assert str(info.value).startswith(
            "series 'u': fetch of http://example.invalid/lfs/u.csv failed and no cache present: ")

    def test_cache_file_has_write_text_mode(self, monkeypatch, tmp_path):
        desc = remote_entry("http://example.invalid", tmp_path, dataset="x", key="y").remote
        monkeypatch.setattr(urllib.request, "urlopen",
                            lambda url, timeout: io.BytesIO(PAYLOAD.encode()))
        ingest.fetch_payload(desc)
        sibling = tmp_path / "sibling.csv"
        sibling.write_text(PAYLOAD, encoding="utf-8")
        assert desc.cache_path.stat().st_mode == sibling.stat().st_mode


class TestWriteAtomic:
    def test_replaces_the_whole_file(self, tmp_path):
        target = tmp_path / "a.csv"
        target.write_text("old text that is longer than the new\n", encoding="utf-8")
        ingest.write_atomic(target, "new\n")
        assert target.read_bytes() == b"new\n"
        assert list(tmp_path.iterdir()) == [target]

    def test_failed_write_keeps_the_previous_file(self, tmp_path):
        target = tmp_path / "a.csv"
        target.write_text("year,value\n1980,1.0\n", encoding="utf-8")
        before = target.read_bytes()
        with pytest.raises(UnicodeEncodeError):
            ingest.write_atomic(target, "year,value\n" * 1000 + "\ud800")
        assert target.read_bytes() == before
        assert list(tmp_path.iterdir()) == [target]

    def test_new_file_has_write_text_mode(self, tmp_path):
        ingest.write_atomic(tmp_path / "a.csv", "x\n")
        (tmp_path / "b.csv").write_text("x\n", encoding="utf-8")
        assert (tmp_path / "a.csv").stat().st_mode == (tmp_path / "b.csv").stat().st_mode

    def test_missing_directory_leaves_nothing(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ingest.write_atomic(tmp_path / "absent" / "a.csv", "x\n")
        assert list(tmp_path.iterdir()) == []


class TestJsonText:
    def test_undefined_number_is_null(self):
        doc = {"a": float("nan"), "b": [math.inf, 1.5], "c": (-math.inf,), "d": np.float64("nan")}
        assert ingest.json_text(doc) == (
            '{\n  "a": null,\n  "b": [\n    null,\n    1.5\n  ],\n'
            '  "c": [\n    null\n  ],\n  "d": null\n}\n')


class TestJsonFloat:
    @pytest.mark.parametrize("value, shown", [
        (float("nan"), "nan"),
        (math.inf, "inf"),
        (-math.inf, "-inf"),
        (10 ** 400, "an integer too large for a float"),
    ])
    def test_non_finite_number_is_refused_by_name(self, value, shown):
        with pytest.raises(InputError) as info:
            ingest.json_float("rate", value)
        assert str(info.value) == f"rate must be a finite number, got {shown}"

    @pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity", "1e999"])
    def test_what_json_reads_as_non_finite(self, text):
        with pytest.raises(InputError, match="^rate must be a finite number, got "):
            ingest.json_float("rate", json.loads(text))

    @pytest.mark.parametrize("value", [0, -3, 1e308, -1e308, 5e-324, np.float64(0.5)])
    def test_finite_number_is_a_float(self, value):
        got = ingest.json_float("rate", value)
        assert type(got) is float and got == value


class TestParticipation:
    def test_zero_rate(self):
        pop = AnnualSeries(2010, (1e6, 2e6), units="persons")
        lf = ingest.participation_labor_force(pop, 0.0)
        assert lf.values == (0.0, 0.0)

    def test_unit_rate_identity(self):
        pop = AnnualSeries(2010, (1e6, 2e6), units="persons")
        assert ingest.participation_labor_force(pop, 1.0).values == pop.values

    def test_published_participation(self):
        pop = AnnualSeries(2010, (128_600_000.0,), units="persons")
        lf = ingest.participation_labor_force(pop, 0.521)
        assert lf.values[0] == pytest.approx(67_000_600.0, abs=1.0)

    def test_rate_out_of_range(self):
        pop = AnnualSeries(2010, (1e6,), units="persons")
        with pytest.raises(InputError):
            ingest.participation_labor_force(pop, 1.5)


U_CSV = {"path": "u.csv", "kind": "unemployment", "units": "percent"}


def write_manifest(tmp_path, series) -> Path:
    mpath = tmp_path / "manifest.json"
    mpath.write_text(json.dumps({"series": series}))
    return mpath


class TestManifestEntries:
    def test_paths_resolve_against_the_manifest(self, tmp_path):
        absolute = str(tmp_path / "elsewhere" / "v.csv")
        manifest = ingest.load_manifest(write_manifest(tmp_path, {
            "u": U_CSV, "v": {**U_CSV, "path": absolute}}))
        assert manifest["u"].path == tmp_path / "u.csv"
        assert manifest["v"].path == Path(absolute)

    def test_entries_for_names_and_growth(self, tmp_path):
        lf = {"path": "lf.csv", "kind": "labor-force", "units": "persons"}
        manifest = ingest.load_manifest(write_manifest(tmp_path, {
            "u": U_CSV, "v": U_CSV, "lf": lf, "pop": {**lf, "kind": "population"}}))
        assert sorted(ingest.entries_for(manifest, ["u", "nope"])) == ["u"]
        assert sorted(ingest.entries_for(manifest, ["v", "lf_growth"])) == ["lf", "v"]
        # only a labor-force entry has a derived growth series
        assert ingest.entries_for(manifest, ["pop_growth", "u_growth"]) == {}

    def test_remote_cache_file_resolves_when_the_manifest_loads(self, monkeypatch, tmp_path):
        monkeypatch.setenv(ingest.CACHE_DIR_ENV, str(tmp_path / "env"))
        remote = {"base_url": "http://example.invalid", "dataset": "lfs", "key": "u"}
        mpath = write_manifest(tmp_path, {
            "derived": {"remote": remote, "kind": "unemployment", "units": "percent"},
            "empty": {"remote": {**remote, "cache": ""}, "kind": "unemployment",
                      "units": "percent"},
            "own": {"remote": {**remote, "cache": "c/u.csv"}, "kind": "unemployment",
                    "units": "percent"}})
        for cache, derived in ((None, tmp_path / "env"), (tmp_path / "dir", tmp_path / "dir")):
            manifest = ingest.load_manifest(mpath, cache=cache)
            assert manifest["derived"].remote.cache_path == derived / "lfs__u.csv"
            # an empty "cache" is the derived location, as an absent one is
            assert manifest["empty"].remote.cache_path == derived / "lfs__u.csv"
            assert manifest["own"].remote.cache_path == tmp_path / "c" / "u.csv"

    @pytest.mark.parametrize("text, reason", [
        (None, "No such file or directory"),
        ("year,value\n1980,1.0\n1981,x\n", "row 3: unparsable row '1981,x'"),
        (b"year,value\n1980,\xff\n", "'utf-8' codec can't decode"),
    ], ids=["missing", "bad-row", "not-utf-8"])
    def test_read_failure_names_the_series_and_the_file(self, tmp_path, text, reason):
        if isinstance(text, bytes):
            (tmp_path / "u.csv").write_bytes(text)
        elif text is not None:
            (tmp_path / "u.csv").write_text(text)
        manifest = ingest.load_manifest(write_manifest(tmp_path, {"u": U_CSV}))
        with pytest.raises(InputError) as info:
            ingest.load_series(manifest, "u")
        assert str(info.value).startswith(f"series 'u' ({tmp_path / 'u.csv'}): {reason}")

    def test_malformed_payload_names_the_series_and_the_url(self, tmp_path):
        manifest = ingest.load_manifest(write_manifest(tmp_path, {"u": {
            "remote": {"base_url": "http://example.invalid", "dataset": "x", "key": "y"},
            "kind": "unemployment", "units": "percent"}}), cache=tmp_path)
        desc = manifest["u"].remote
        desc.cache_path.write_text("Not Found")
        with pytest.raises(ParseError) as info:
            ingest.load_series(manifest, "u")
        assert str(info.value).startswith(f"series 'u': malformed payload from {desc.url}: ")
