import tracemalloc
from pathlib import Path

import pytest

from lfphillips import ingest

DATA_DIR = Path(__file__).resolve().parent.parent / "data" / "japan"


@pytest.fixture(scope="session")
def japan_manifest():
    return ingest.load_manifest(DATA_DIR / "manifest.json")


@pytest.fixture(scope="session")
def japan(japan_manifest):
    """Bundled Japan series in internal units, plus derived labor-force growth."""
    return ingest.load_all(japan_manifest)


@pytest.fixture(scope="session")
def japan_scenario_path():
    return DATA_DIR / "scenario_2005.json"


@pytest.fixture
def traced_peak():
    """Peak bytes that ``tracemalloc`` sees a call add, measured on a second
    call so that one-time set-up is not counted; numpy reports its array
    buffers to it."""

    def peak(call) -> int:
        call()
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            call()
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()

    return peak
