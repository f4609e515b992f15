"""The two scripts/ entry points, each run as a user runs it."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *argv):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *argv],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )


@pytest.mark.parametrize("script, charts", [
    ("reproduce_japan.py", ["phillips_scatter.svg"]),
    ("forecast_2050.py", ["forecast_inflation.svg", "forecast_unemployment.svg"]),
])
def test_script_writes_whole_charts(tmp_path, script, charts):
    proc = run_script(script, "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in tmp_path.glob("*.svg")) == charts
    for name in charts:
        text = (tmp_path / name).read_text(encoding="utf-8")
        assert text.startswith("<svg ")
        assert text.rstrip("\n").endswith("</svg>")
        assert text.count("<svg") == text.count("</svg>") == 1
    assert not list(tmp_path.glob("*.tmp"))
