"""Host time per event must not grow with run length.

DESIGN.md section 5 promises simulation work proportional to tokens in
flight.  Any per-event container that is walked, sorted or copied as
it grows breaks that, and shows up here as a ratio well above 1: the
reservation ledgers' cleanup scan measured 5.5 before it was deleted,
about 1.2 after.

The same holds for a cell that never finishes: once every live token
deflects forever the engine proves the fixed point and jumps to the
budget, so a 4x budget must not cost 4x the host time (it did, 0.34 s
against 0.09 s, while every bounce was interpreted).
"""

import time

from repro.core import WaveScalarConfig, WaveScalarProcessor
from repro.sim.compile import get_compiled
from repro.sim.failures import CycleBudgetExhausted
from repro.workloads import Scale

CONFIG = WaveScalarConfig(
    clusters=4, virtualization=128, matching_entries=128, l2_mb=1
)


def _us_per_event(scale: Scale) -> float:
    compiled = get_compiled("ammp", scale=scale)
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        stats = WaveScalarProcessor(CONFIG).run_compiled(
            compiled, check=False
        ).stats
        elapsed = time.perf_counter() - started
        best = min(best, 1e6 * elapsed / stats.events_processed)
    return best


def test_host_time_per_event_flat_in_run_length():
    small = _us_per_event(Scale.SMALL)
    medium = _us_per_event(Scale.MEDIUM)
    assert medium / small <= 2.0, (small, medium)


#: The first V16/M16 design of the benchmark study; twolf ends with
#: two tokens deflecting off full matching-table sets.
STUCK_CONFIG = WaveScalarConfig(
    clusters=16, virtualization=16, matching_entries=16, l1_kb=16
)


def _stuck_seconds(max_cycles: int) -> float:
    compiled = get_compiled("twolf", scale=Scale.TINY)
    best = float("inf")
    for _ in range(3):
        proc = WaveScalarProcessor(STUCK_CONFIG, max_cycles=max_cycles)
        started = time.perf_counter()
        try:
            proc.run_compiled(compiled, check=False)
        except CycleBudgetExhausted:
            best = min(best, time.perf_counter() - started)
    return best


def test_host_time_of_a_stuck_cell_flat_in_its_budget():
    short = _stuck_seconds(1_000_000)
    long = _stuck_seconds(4_000_000)
    assert long / short <= 1.5, (short, long)
