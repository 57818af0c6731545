"""Data oracle: medium-scale ``SimStats`` pinned as a JSON fixture.

The recorded verdicts of ``tests/sim/verdicts.json`` are tiny cells,
whose ``BandwidthLedger`` reservation dicts stay small.  This fixture
holds the full ``SimStats`` of the benchmark's six ``cells_long``
cells at medium scale, where ammp, mcf and gzip grow them past the
4096 entries at which the ledger's deleted cleanup scan used to run.
It was recorded at the commit *before* that scan was deleted, and the
engine must reproduce it field for field -- run alone, and driven by
the batched backend (``repro.sim.batched``).

To re-record after an intended change to a simulated statistic::

    PYTHONPATH=src python tests/sim/test_medium_stats_fixture.py
"""

import json
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.core import WaveScalarConfig, WaveScalarProcessor
from repro.place.snake import place
from repro.sim.batched import BatchedEngine
from repro.sim.compile import get_compiled
from repro.sim.engine import Engine
from repro.workloads import Scale
from repro.workloads.registry import get

FIXTURE = Path(__file__).with_name("medium_stats.json")

#: ``bench/workloads.py``: CELL_CONFIG, CELL_THREADS, LONG_CELLS.
CONFIG = WaveScalarConfig(
    clusters=4, virtualization=128, matching_entries=128, l2_mb=1
)
THREADS = 16
CELLS = ("ammp", "mcf", "gzip", "gemm_os", "radix", "fft")


def _stats(name: str, driver: str = "plain") -> dict:
    threads = THREADS if get(name).multithreaded else None
    compiled = get_compiled(name, scale=Scale.MEDIUM, threads=threads)
    if driver == "plain":
        stats = WaveScalarProcessor(CONFIG).run_compiled(compiled).stats
    else:
        engine = Engine(
            compiled.graph, CONFIG, place(compiled.graph, CONFIG),
            compiled=compiled.decoded,
        )
        (outcome,) = BatchedEngine([engine]).run()
        assert outcome.ok
        stats = outcome.stats
    # Through JSON so the comparison sees what the fixture can hold
    # (``outputs`` is keyed by int instruction id).
    return json.loads(json.dumps(asdict(stats)))


@pytest.fixture(scope="module")
def recorded() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("driver", ("plain", "batched"))
@pytest.mark.parametrize("name", CELLS)
def test_medium_stats_match_fixture(recorded, name, driver):
    got = _stats(name, driver)
    want = recorded[name]
    assert got.keys() == want.keys()
    for field in want:
        assert got[field] == want[field], field


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(
        {name: _stats(name) for name in CELLS},
        indent=1, sort_keys=True,
    ) + "\n")
