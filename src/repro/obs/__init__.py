"""Unified observability: metrics, trace export, and profiling.

The paper's entire evaluation is read off simulator instrumentation
(AIPC, Figure 8 traffic locality, Table 4 matching behaviour, the
Figure 9 pipeline walk-through), and the harness's campaign health is
read off scheduler instrumentation.  This package is the one place
both live:

* :mod:`repro.obs.metrics` -- a counter/histogram registry, the
  fold of per-cell ledger ``metrics`` blocks, and the
  :class:`~repro.obs.metrics.ThroughputMeter` behind the sweep
  driver's cells-per-second / ETA reporting;
* :mod:`repro.obs.chrome` -- Chrome trace-event JSON export of a
  :class:`~repro.sim.trace.Trace` (one track per PE; open the file in
  Perfetto or ``chrome://tracing``);
* :mod:`repro.obs.profile` -- opt-in per-phase time attribution of
  the engine hot loop (INPUT/MATCH/DISPATCH/EXECUTE/DELIVER), sampled
  from an interval timer; the loop carries no profiling code.
"""

from .chrome import chrome_trace_events, write_chrome_trace
from .metrics import (
    DETERMINISTIC_CELL_COUNTERS,
    Counter,
    Histogram,
    MetricsRegistry,
    ThroughputMeter,
    aggregate_records,
    cell_metrics,
    reuse_totals,
)
from .profile import PHASES, PhaseProfile

__all__ = [
    "Counter",
    "DETERMINISTIC_CELL_COUNTERS",
    "Histogram",
    "MetricsRegistry",
    "PHASES",
    "PhaseProfile",
    "ThroughputMeter",
    "aggregate_records",
    "cell_metrics",
    "reuse_totals",
    "chrome_trace_events",
    "write_chrome_trace",
]
