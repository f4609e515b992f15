"""Every file format the package reads or writes.

Series CSV is a two-column file with header ``year,value`` and strictly
consecutive years. A manifest is a JSON file mapping series names to a local
path or remote descriptor plus a kind and units declaration; units are never
sniffed from the data. ``load_manifest`` resolves every file an entry names,
a remote entry's cache file included, so no later call takes a cache
directory. A command reads only the entries that ``entries_for`` picks.

``read_entry`` is the one reader of a series, whether a manifest entry, a
scenario CSV or a ``fetch``: it alone calls ``read_csv_series`` and
``fetch_payload``, and every failure it raises names the series and the file
or URL it read: a missing or unreadable file, a cache file that is not UTF-8,
a malformed URL, a failed fetch and a payload that does not decode or parse.
Remote fetches are cache-first: the raw payload is cached verbatim on first
fetch and all later loads are offline. A forced refetch that fails raises and
leaves the cache file as it was.

``KIND_UNITS`` is the one map from a series kind to its internal units tag;
a forecast path carries the units of its model's response kind through it.

Other modules read and write files only through this one: ``read_json``,
``json_object`` and the ``json_int``/``json_float``/``json_str`` field checks
read every spec, scenario and manifest, and ``json_path`` every file they name.
``json_span`` is the one span rule, two integer years first <= last, for a spec's
``window``, a scenario's ``horizon`` and the CLI's ``--window``/``--lags``/``--years``.
Every CSV or JSON artifact is ``csv_text`` or ``json_text`` (a series is
``series_csv``); ``json_text`` writes strict JSON, an undefined number as
``null``. Every file is written by ``write_atomic``: the CLI's
artifacts by ``cli.main``, a fetched payload by ``fetch_payload``.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from dataclasses import dataclass
from pathlib import Path

from .errors import InputError, ParseError, RetrievalError
from .series import AnnualSeries, log_growth

CACHE_DIR_ENV = "LFPHILLIPS_CACHE_DIR"
DEFAULT_CACHE_DIR = Path.home() / ".cache" / "lfphillips"

# internal units tag per series kind
KIND_UNITS = {
    "cpi-inflation": "fraction-per-year",
    "dgdp-inflation": "fraction-per-year",
    "unemployment": "fraction",
    "labor-force": "persons",
    "population": "persons",
}

# multiplier applied to raw values on load
_UNIT_SCALE = {
    "fraction": 1.0,
    "percent": 0.01,
    "persons": 1.0,
    "thousands": 1000.0,
}

KINDS = tuple(KIND_UNITS)
SOURCE_UNITS = tuple(_UNIT_SCALE)


def read_json(path, what: str):
    """The JSON document in the file at ``path``; an unreadable file or
    malformed JSON raises InputError naming the ``what`` it was to hold."""
    p = Path(path)
    try:
        return json.loads(p.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot read {what} {p}: {exc}") from exc


def json_object(what: str, doc, names, required=(), prefix: str = "") -> dict:
    """``doc`` as a JSON object of ``what`` that holds every key of ``required``
    and no key outside ``names``; otherwise InputError naming the culprit.
    ``prefix`` is the object's key path inside ``what``, such as ``"linear."``."""
    if not isinstance(doc, dict):
        where = f"{what} {prefix[:-1]!r}" if prefix else what
        raise InputError(f"{where} must be a JSON object, got {doc!r}")
    for key in doc:
        if key not in names:
            raise InputError(f"{what} has unknown key {f'{prefix}{key}'!r}; "
                             f"expected one of {list(names)}")
    for key in required:
        if key not in doc:
            raise InputError(f"{what} is missing {f'{prefix}{key}'!r}")
    return doc


def json_int(what: str, value) -> int:
    """``value`` as an int; an integral float (JSON may spell 1982 as 1982.0)
    converts, and a bool is no integer."""
    if type(value) is int:  # the common case, ahead of the slower numbers.Integral check
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    raise InputError(f"{what} must be an integer, got {value!r}")


def json_span(what: str, value) -> tuple[int, int]:
    """``value`` as ``(first, last)``; InputError naming ``what`` if malformed or empty."""
    if not isinstance(value, (tuple, list)) or len(value) != 2:
        raise InputError(f"{what} must be two years, got {value!r}")
    first, last = (json_int(f"{what} year", year) for year in value)
    if first > last:
        raise InputError(f"empty {what} {first}:{last}")
    return first, last


def json_float(what: str, value) -> float:
    """``value`` as a finite float; a bool or a string is no number. Python's
    json reads ``NaN``, ``Infinity`` and ``1e999``, and an integer may be too
    large for a float: each is refused naming ``what``."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise InputError(f"{what} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        shown = value if isinstance(value, float) else "an integer too large for a float"
        raise InputError(f"{what} must be a finite number, got {shown}")
    return number


def json_str(what: str, value) -> str:
    if not isinstance(value, str):
        raise InputError(f"{what} must be a string, got {value!r}")
    return value


def json_path(what: str, value, doc_path) -> Path:
    """The file ``value`` names in the JSON file ``doc_path``, relative to its directory."""
    return Path(doc_path).parent / json_str(what, value)


@dataclass(frozen=True)
class RemoteDescriptor:
    """Location of a series on an agency-style HTTP endpoint.

    The payload at ``{base_url}/{dataset}/{key}.csv`` must be the same
    ``year,value`` CSV used on disk. ``cache_path`` is the file that holds
    the cached payload; ``load_manifest`` resolves it.
    """

    base_url: str
    dataset: str
    key: str
    cache_path: Path

    @property
    def url(self) -> str:
        return f"{self.base_url.rstrip('/')}/{self.dataset}/{self.key}.csv"


@dataclass(frozen=True)
class ManifestEntry:
    kind: str
    units: str
    path: Path | None = None
    remote: RemoteDescriptor | None = None


def read_csv_series(source, kind: str, units: str, label: str = "") -> AnnualSeries:
    """Parse a ``year,value`` CSV into an AnnualSeries in internal units.

    ``source`` is a path (``os.PathLike``), which is read as a file, or a
    ``str``, which is the CSV text itself.
    """
    if kind not in KINDS:
        raise InputError(f"unknown series kind {kind!r}")
    if units not in SOURCE_UNITS:
        raise InputError(f"unknown units {units!r}")
    text = Path(source).read_text(encoding="utf-8") if isinstance(source, os.PathLike) else source
    lines = text.replace("\r\n", "\n").strip("\n").split("\n")
    if not lines or lines[0].strip().lower() != "year,value":
        raise InputError("row 1: expected header 'year,value'")
    scale = _UNIT_SCALE[units]
    years: list[int] = []
    values: list[float] = []
    for rownum, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise InputError(f"row {rownum}: expected 'year,value', got {line!r}")
        try:
            year = int(parts[0].strip())
            value = float(parts[1].strip())
        except ValueError as exc:
            raise InputError(f"row {rownum}: unparsable row {line!r}") from exc
        if years:
            if year == years[-1]:
                raise InputError(f"row {rownum}: duplicate year {year}")
            if year != years[-1] + 1:
                raise InputError(f"row {rownum}: gap in years, missing year {years[-1] + 1}")
        years.append(year)
        values.append(value * scale)
    if not years:
        raise InputError("no data rows")
    return AnnualSeries(years[0], tuple(values), label=label, units=KIND_UNITS[kind])


def cache_dir() -> Path:
    override = os.environ.get(CACHE_DIR_ENV)
    return Path(override) if override else DEFAULT_CACHE_DIR


def read_entry(what: str, entry: ManifestEntry, label: str = "", timeout: float = 30.0,
               force: bool = False) -> AnnualSeries:
    """The series of ``entry`` in internal units, labelled ``label``.

    A path entry whose file cannot be read or parsed raises InputError
    ``"<what> (<path>): <reason>"``. A remote entry is read through
    ``fetch_payload``, which fetches only on a cold cache or with ``force``;
    a failed fetch or an unreadable cache file raises RetrievalError
    ``"<what>: ..."`` naming the URL or the cache file, and a payload that
    does not decode or parse ParseError ``"<what>: malformed payload from <url>: ..."``.
    """
    if entry.remote is None:
        try:
            return read_csv_series(entry.path, entry.kind, entry.units, label=label)
        except (OSError, ValueError, InputError) as exc:
            raise InputError(f"{what} ({entry.path}): {_reason(exc)}") from exc
    try:
        payload = fetch_payload(entry.remote, timeout=timeout, force=force)
    except (RetrievalError, ParseError) as exc:
        raise type(exc)(f"{what}: {exc}") from exc
    try:
        return read_csv_series(payload, entry.kind, entry.units, label=label)
    except InputError as exc:
        raise ParseError(f"{what}: malformed payload from {entry.remote.url}: {exc}") from exc


def _reason(exc: Exception):
    """What went wrong in ``exc``; an OSError's str() would repeat the path."""
    return getattr(exc, "strerror", None) or exc


def fetch_payload(desc: RemoteDescriptor, timeout: float = 30.0, force: bool = False) -> str:
    """The payload of ``desc``: its cache file's text on a warm cache, else
    the text fetched from its URL, which then replaces the cache file.

    ``force`` fetches even on a warm cache. A cache file that cannot be read
    or decoded, or a failed fetch (a malformed URL included), raises
    RetrievalError; a fetched payload that is not UTF-8 raises ParseError.
    Either leaves the cache file as it was.
    """
    target = desc.cache_path
    if target.exists() and not force:
        try:
            return target.read_text(encoding="utf-8")
        except (OSError, ValueError) as exc:
            raise RetrievalError(f"cannot read cache file {target}: {_reason(exc)}") from exc
    # the HTTP stack costs ~45 ms to import; only a cold fetch pays for it
    import http.client
    import urllib.request

    try:
        with urllib.request.urlopen(desc.url, timeout=timeout) as resp:
            raw = resp.read()
    # OSError: URLError and socket errors; ValueError: a URL without a scheme;
    # HTTPException: a truncated or garbled response
    except (OSError, ValueError, http.client.HTTPException) as exc:
        cached = "the cache file is kept as it was" if target.exists() else "no cache present"
        raise RetrievalError(f"fetch of {desc.url} failed and {cached}: {exc}") from exc
    try:
        payload = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"malformed payload from {desc.url}: {exc}") from exc
    target.parent.mkdir(parents=True, exist_ok=True)
    # concurrent fetchers of one key converge on a whole payload
    write_atomic(target, payload)
    return payload


def write_atomic(path, text: str) -> None:
    """Replace the file at ``path`` with ``text`` in one rename.

    The text goes to a uniquely named temp file in the same directory, which
    is then renamed over the target, so a reader sees the old file or the new
    one, never part of one. On any failure the temp file is removed and the
    target is left as it was. The file gets the mode ``Path.write_text``
    gives a new file (0o666 less the umask).
    """
    target = Path(path)
    while True:
        tmp = target.with_name(f"{target.name}.{os.urandom(6).hex()}.tmp")
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
    try:
        with open(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


_ENTRY_KEYS = ("path", "remote", "kind", "units")
_REMOTE_KEYS = ("base_url", "dataset", "key", "cache")


def load_manifest(path, cache=None) -> dict[str, ManifestEntry]:
    """The entries of a manifest JSON file by name, each path resolved against it.

    A remote entry's cache file is its descriptor's ``cache``, resolved
    against the manifest's directory; without one it is
    ``{dataset}__{key}.csv`` in the directory ``cache`` if given, else in
    ``cache_dir()``.

    An unknown key, a field of the wrong type, an entry without exactly one
    of ``path`` or ``remote``, or a series that a derived ``<name>_growth``
    would shadow raises InputError naming the series and the field.
    """
    p = Path(path)
    default_cache = Path(cache) if cache else cache_dir()
    doc = json_object(f"manifest {p}", read_json(p, "manifest"), ("series",))
    if not isinstance(doc.get("series"), dict) or not doc["series"]:
        raise InputError(f"manifest {p} has no 'series' table")
    entries: dict[str, ManifestEntry] = {}
    for name, raw in doc["series"].items():
        what = f"series {name!r}"
        raw = json_object(what, raw, _ENTRY_KEYS, ("kind", "units"))
        kind, units = raw["kind"], raw["units"]
        if kind not in KINDS:
            raise InputError(f"{what}: unknown kind {kind!r}")
        if units not in SOURCE_UNITS:
            raise InputError(f"{what}: unknown units {units!r}")
        if kind == "labor-force" and f"{name}_growth" in doc["series"]:
            raise InputError(f"series {name + '_growth'!r} would be shadowed by the growth "
                             f"series derived from labor-force series {name!r}; rename it")
        if ("path" in raw) == ("remote" in raw):
            raise InputError(f"{what}: needs exactly one of 'path' or 'remote'")
        if "path" in raw:
            entries[name] = ManifestEntry(kind, units,
                                          path=json_path(f"{what} 'path'", raw["path"], p))
            continue
        remote = json_object(what, raw["remote"], _REMOTE_KEYS, _REMOTE_KEYS[:3], "remote.")
        r = {key: json_str(f"{what} 'remote.{key}'", v) for key, v in remote.items()}
        # an empty "cache" leaves the derived location, as an absent one does
        if r.get("cache"):
            cache_path = json_path(f"{what} 'remote.cache'", r["cache"], p)
        else:
            cache_path = default_cache / f"{r['dataset']}__{r['key']}.csv"
        desc = RemoteDescriptor(r["base_url"], r["dataset"], r["key"], cache_path)
        entries[name] = ManifestEntry(kind, units, remote=desc)
    return entries


def entries_for(manifest: dict[str, ManifestEntry], names) -> dict[str, ManifestEntry]:
    """The entries that series ``names`` read; ``<name>_growth`` reads labor-force ``<name>``."""
    return {name: entry for name, entry in manifest.items()
            if name in names or (entry.kind == "labor-force" and f"{name}_growth" in names)}


def load_series(manifest: dict[str, ManifestEntry], name: str) -> AnnualSeries:
    """The series ``name``; a failure to read or parse it names the series."""
    entry = manifest.get(name)
    if entry is None:
        raise InputError(f"series {name!r} not in manifest (have {sorted(manifest)})")
    return read_entry(f"series {name!r}", entry, label=name)


def load_all(manifest: dict[str, ManifestEntry]) -> dict[str, AnnualSeries]:
    """Load every manifest series; labor-force entries also get a derived
    ``<name>_growth`` series (annual log-difference) for use as a predictor."""
    data = {name: load_series(manifest, name) for name in manifest}
    for name, entry in manifest.items():
        if entry.kind == "labor-force" and len(data[name]) >= 2:
            data[f"{name}_growth"] = log_growth(data[name]).relabel(f"{name}_growth")
    return data


def participation_labor_force(population: AnnualSeries, rate: float) -> AnnualSeries:
    """Labor force implied by a total-population path under a fixed participation rate."""
    if not 0.0 <= rate <= 1.0:
        raise InputError(f"participation rate {rate} outside [0, 1]")
    if population.units != "persons":
        raise InputError(f"expected persons-level population, got units {population.units!r}")
    return population.scale(rate).relabel(
        f"{population.label} x {rate}" if population.label else "labor force")


def series_csv(s: AnnualSeries) -> str:
    """``s`` in the on-disk ``year,value`` CSV format (repr round-trips floats exactly)."""
    return csv_text(("year", "value"), zip(s.years, s.values))


# benchmark-only: perfbench/layers.py traces it by name; the CLI writes series_csv text
def write_csv_series(s: AnnualSeries, path) -> None:
    """Write ``s`` to ``path`` as ``series_csv`` text."""
    write_atomic(path, series_csv(s))


def csv_text(header, rows) -> str:
    """CSV text of a header row and then ``rows``: a ``str`` cell is written
    as given, a number by ``repr``, which round-trips a float exactly."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(c if isinstance(c, str) else repr(c) for c in row))
    return "\n".join(lines) + "\n"


def json_text(doc) -> str:
    """``doc`` as strict JSON text: sorted keys, a two-space indent, a final
    newline, and ``null`` for an undefined number (NaN or infinite), which
    RFC 8259 cannot spell."""
    return json.dumps(_defined(doc), indent=2, sort_keys=True, allow_nan=False) + "\n"


def _defined(value):
    """``value`` with every non-finite float in it, at any depth, as None."""
    if isinstance(value, dict):
        return {key: _defined(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_defined(v) for v in value]
    return None if isinstance(value, float) and not math.isfinite(value) else value
