"""Data oracle: medium-scale ``SimStats`` pinned as a JSON fixture.

``sim/_legacy/engine.py`` imports the live ``BandwidthLedger`` (and the
live network and memory models), so the seed-engine golden suite
cannot witness a change to any of them.  This fixture can: it holds
the full ``SimStats`` of the benchmark's six ``cells_long`` cells,
recorded at the commit *before* the ledger's cleanup scan was deleted,
and both backends must reproduce it field for field.

To re-record after an intended change to a simulated statistic::

    PYTHONPATH=src python tests/sim/test_medium_stats_fixture.py
"""

import json
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.core import WaveScalarConfig, WaveScalarProcessor
from repro.sim.compile import get_compiled
from repro.workloads import Scale
from repro.workloads.registry import get

FIXTURE = Path(__file__).with_name("medium_stats.json")

#: ``bench/workloads.py``: CELL_CONFIG, CELL_THREADS, LONG_CELLS.
CONFIG = WaveScalarConfig(
    clusters=4, virtualization=128, matching_entries=128, l2_mb=1
)
THREADS = 16
CELLS = ("ammp", "mcf", "gzip", "gemm_os", "radix", "fft")


def _stats(name: str, backend: str) -> dict:
    threads = THREADS if get(name).multithreaded else None
    compiled = get_compiled(name, scale=Scale.MEDIUM, threads=threads)
    processor = WaveScalarProcessor(CONFIG, backend=backend)
    stats = processor.run_compiled(compiled).stats
    assert processor.last_backend_fallback is None
    # Through JSON so the comparison sees what the fixture can hold
    # (``outputs`` is keyed by int instruction id).
    return json.loads(json.dumps(asdict(stats)))


@pytest.fixture(scope="module")
def recorded() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("backend", ("plain", "batched"))
@pytest.mark.parametrize("name", CELLS)
def test_medium_stats_match_fixture(recorded, name, backend):
    got = _stats(name, backend)
    want = recorded[name]
    assert got.keys() == want.keys()
    for field in want:
        assert got[field] == want[field], field


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(
        {name: _stats(name, "plain") for name in CELLS},
        indent=1, sort_keys=True,
    ) + "\n")
