"""Host time per event must not grow with run length.

DESIGN.md section 5 promises simulation work proportional to tokens in
flight.  Any per-event container that is walked, sorted or copied as
it grows breaks that, and shows up here as a ratio well above 1: the
reservation ledgers' cleanup scan measured 5.5 before it was deleted,
about 1.2 after.
"""

import time

from repro.core import WaveScalarConfig, WaveScalarProcessor
from repro.sim.compile import get_compiled
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
