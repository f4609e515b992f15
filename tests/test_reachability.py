"""The package ships only what it runs: every top-level function and class of
``src/lfphillips/``, and every method that is not a dunder, is read by the
package or by ``scripts/`` outside its own definition. The only exceptions are
the test oracle and the names that only the benchmark calls, each listed with
the ``perfbench/`` file that calls it."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "lfphillips"
# the test oracle is neither checked nor counted as a reader
ORACLE = "oracle.py"

# names only perfbench calls, each with the file that names it: once that file
# stops naming one, delete it from the package and from here
BENCHMARK_ONLY = {
    "ols_fit": "layers.py",
    "cumulative_fit": "layers.py",
    "fit_piecewise": "layers.py",
    "predict": "layers.py",
    "write_csv_series": "layers.py",
    "with_lag": "workloads.py",
}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def _read_names(tree: ast.AST):
    """(name, line) for every variable and attribute the tree loads. An import
    is not a read, so a name exported from ``__init__`` is not used by that."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node.lineno


def definitions() -> dict[str, list[tuple[Path, ast.AST]]]:
    """Each top-level function or class, and each method that is not a dunder,
    by name, with where it is defined."""
    found: dict[str, list[tuple[Path, ast.AST]]] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == ORACLE:
            continue
        for top in _parse(path).body:
            if not isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                continue
            found.setdefault(top.name, []).append((path, top))
            if isinstance(top, ast.ClassDef):
                for node in top.body:
                    if isinstance(node, ast.FunctionDef) and not (
                            node.name.startswith("__") and node.name.endswith("__")):
                        found.setdefault(node.name, []).append((path, node))
    return found


def readers() -> dict[str, set[str]]:
    """Each defined name mapped to the files of the package and of ``scripts/``
    that read it outside its definitions. The check goes by name, so two methods
    that share one, such as ``FitResult.objective_sse`` and
    ``LagScore.objective_sse``, count as one: a read of either is a read of both."""
    defs = definitions()
    found: dict[str, set[str]] = {name: set() for name in defs}
    sources = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != ORACLE]
    for path in sources + sorted((ROOT / "scripts").glob("*.py")):
        for name, line in _read_names(_parse(path)):
            if name in defs and not any(path == where and node.lineno <= line <= node.end_lineno
                                        for where, node in defs[name]):
                found[name].add(path.relative_to(ROOT).as_posix())
    return found


def test_every_definition_has_a_reader():
    unread = {name for name, files in readers().items() if not files}
    assert unread - set(BENCHMARK_ONLY) == set()


@pytest.mark.parametrize("name, bench_file", sorted(BENCHMARK_ONLY.items()))
def test_benchmark_only_names_are_named_only_by_the_benchmark(name, bench_file):
    found = readers()
    assert name in found, f"{name} is gone from the package; drop it from the list"
    assert found[name] == set(), f"{name} has a reader now; drop it from the list"
    tree = _parse(ROOT / "perfbench" / bench_file)
    named = {n for n, _ in _read_names(tree)} | {
        node.value for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    assert name in named, f"perfbench/{bench_file} no longer names {name}; delete it"
