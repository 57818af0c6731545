"""Metrics: counters, histograms, and sweep aggregation.

Two layers use this module:

* the **cell layer** -- every simulated sweep cell leaves a
  ``metrics`` block on its ledger record (:func:`cell_metrics`),
  carrying the deterministic simulation counters (events, cycles,
  dispatches, messages) plus wall-clock derived series (wall time,
  event throughput);
* the **campaign layer** -- :func:`aggregate_records` folds a loaded
  ledger into one :class:`MetricsRegistry` for ``repro stats``,
  :class:`~repro.harness.sweep.SweepReport`'s compile-cache line,
  and the full report.

Determinism contract: a fold's :attr:`MetricsRegistry.counters` are
bit-identical for any ``jobs`` value and any completion order
(asserted by ``tests/harness/test_scheduler.py``); wall-clock and
compile-cache series are kept in histograms, outside it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

#: Per-cell counters that are pure functions of the cell spec --
#: identical for any scheduler parallelism or completion order.
DETERMINISTIC_CELL_COUNTERS = (
    "events",
    "sim_cycles",
    "dispatches",
    "messages",
    "l1_evictions",
    "l2_evictions",
)

#: The fold's counters that describe how a campaign recovered rather
#: than what it measured: a poisoned cell is the circuit breaker's
#: verdict on a crash loop.
RECOVERY_COUNTERS = ("cells_poisoned",)


@dataclass
class Counter:
    """A monotonically increasing integer."""

    value: int = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


@dataclass
class Histogram:
    """Streaming summary of a value distribution (count/sum/min/max).

    Deliberately bucket-free: the sweep's distributions (cell wall
    time, event throughput) are summarised, not plotted.
    """

    count: int = 0
    total: float = 0.0
    min: float = field(default=float("inf"))
    max: float = field(default=float("-inf"))

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> dict:
        if not self.count:
            return {"count": 0, "total": 0.0, "min": 0.0, "max": 0.0,
                    "mean": 0.0}
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
        }

    def render(self) -> str:
        if not self.count:
            return "n=0"
        return (
            f"n={self.count} mean={self.mean:.4g} "
            f"min={self.min:.4g} max={self.max:.4g}"
        )


class MetricsRegistry:
    """A named collection of counters and histograms with
    get-or-create accessors; :meth:`to_dict` is ``repro stats
    --json``'s document."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- accessors ------------------------------------------------------
    def counter(self, name: str) -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            metric = self._counters[name] = Counter()
        return metric

    def histogram(self, name: str) -> Histogram:
        metric = self._histograms.get(name)
        if metric is None:
            metric = self._histograms[name] = Histogram()
        return metric

    @property
    def counters(self) -> dict[str, int]:
        """Every counter by name.  For an :func:`aggregate_records`
        fold -- cell statuses, retries, failure classes and
        :data:`DETERMINISTIC_CELL_COUNTERS` -- each is a pure function
        of the cell specs, so bit-identical for any scheduler
        parallelism; wall-clock and compile-cache series are
        histograms, excluded by construction."""
        return {name: c.value for name, c in sorted(self._counters.items())}

    @property
    def histograms(self) -> dict[str, Histogram]:
        return dict(sorted(self._histograms.items()))

    # -- serialisation --------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "counters": self.counters,
            "histograms": {
                name: h.to_dict() for name, h in self.histograms.items()
            },
        }

    # -- rendering ------------------------------------------------------
    def render(self, title: Optional[str] = None) -> str:
        lines = [title] if title else []
        for name, value in self.counters.items():
            lines.append(f"  {name:<28}{value:>14,}")
        for name, hist in self.histograms.items():
            lines.append(f"  {name:<28}{hist.render()}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Cell-level metrics (what the ledger persists per record)
# ----------------------------------------------------------------------
def cell_metrics(stats, wall_s: float, l1_fit_sets: int,
                 l2_fit_sets: int) -> dict:
    """The ``metrics`` block for one successful cell record.

    ``stats`` is a :class:`~repro.sim.stats.SimStats`;
    ``l1_fit_sets``/``l2_fit_sets`` are the run's footprint fit, which
    :class:`~repro.core.results.SimulationResult` carries beside it.
    Only scalars go in (the block must survive a JSON round-trip
    through the ledger).
    """
    events = getattr(stats, "events_processed", 0)
    return {
        "wall_s": round(wall_s, 6),
        "events": events,
        "events_per_s": round(events / wall_s, 1) if wall_s > 0 else 0.0,
        "sim_cycles": stats.cycles,
        "dispatches": stats.dispatches,
        "messages": stats.message_count,
        "l1_evictions": stats.l1_evictions,
        "l2_evictions": stats.l2_evictions,
        # The exact-reuse certificate (repro.sim.memory.hierarchy
        # .certifies): a sibling whose set counts are multiples of
        # these needs no run of its own.
        "l1_fit_sets": l1_fit_sets,
        "l2_fit_sets": l2_fit_sets,
    }


def aggregate_records(records: Iterable[dict]) -> MetricsRegistry:
    """Fold ledger records into one registry.

    Accepts the hash-keyed map from :meth:`Ledger.load` (pass
    ``records.values()``) or any iterable of record dicts.  Cells
    without a ``metrics`` block (failed cells, pre-``metrics``
    ledgers) still contribute status and retry counts.
    """
    reg = MetricsRegistry()
    for record in records:
        status = record.get("status", "unknown")
        reg.counter(f"cells_{status}").inc()
        reg.counter("cells_total").inc()
        reg.counter("retries").inc(int(record.get("retries", 0) or 0))
        failure = record.get("failure_class")
        if failure:
            reg.counter(f"failures_{failure}").inc()
        metrics = record.get("metrics") or {}
        for key in DETERMINISTIC_CELL_COUNTERS:
            if key in metrics:
                reg.counter(key).inc(int(metrics[key]))
        if "wall_s" in metrics:
            reg.histogram("cell_wall_s").observe(metrics["wall_s"])
        if metrics.get("events_per_s"):
            reg.histogram("cell_events_per_s").observe(
                metrics["events_per_s"]
            )
        for key in ("compile_cache_hits", "compile_cache_misses",
                    "compile_cache_evictions"):
            if key in metrics:
                # Histograms, NOT counters: cache activity attributed
                # to a cell depends on which isolation child ran it and
                # in what order (the first cell of each workload in an
                # isolation child records the miss), so folding these
                # into the counter set would break the
                # jobs-independence contract of ``reg.counters``.
                reg.histogram(key).observe(metrics[key])
    return reg


def reuse_totals(records: dict[str, dict]) -> dict:
    """Exact reuse over a hash-keyed record map: how many cells were
    recorded from a certifier's run (``reused_from``), how many of
    those a certifier with a larger cache at some level certified
    (``from_larger``), and the wall those certifiers spent
    simulating, once per reused cell -- the time the reuse saved.
    Which cells were reused follows scheduling, so none of these
    belongs in the fold's counters."""
    cells = from_larger = 0
    wall_s = 0.0
    for record in records.values():
        source = record.get("reused_from")
        if source is None:
            continue
        cells += 1
        certifier = records.get(source) or {}
        wall_s += (certifier.get("metrics") or {}).get("wall_s", 0.0)
        if "spec" in certifier and "spec" in record:
            mine = record["spec"]["config"]
            theirs = certifier["spec"]["config"]
            from_larger += any(theirs[size] > mine[size]
                               for size in ("l1_kb", "l2_mb"))
    return {"cells": cells, "from_larger": from_larger,
            "certifier_wall_s": round(wall_s, 6)}


# ----------------------------------------------------------------------
# Live throughput / ETA
# ----------------------------------------------------------------------
class ThroughputMeter:
    """Cells-per-second with ETA for a running campaign.

    The sweep driver notes every resolved cell (simulated, resumed, or
    rejected); ``rate()`` and ``eta_s()`` answer the two questions a
    user has mid-campaign.  ``total`` is the upper bound of cells the
    campaign may run (lane stop-on-failure can finish earlier, so the
    ETA is conservative).
    """

    def __init__(
        self,
        total: Optional[int] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.total = total
        self.done = 0
        self._clock = clock
        self._started = clock()

    def note(self, n: int = 1) -> None:
        self.done += n

    @property
    def elapsed_s(self) -> float:
        return self._clock() - self._started

    def rate(self) -> float:
        elapsed = self.elapsed_s
        return self.done / elapsed if elapsed > 0 else 0.0

    def eta_s(self) -> Optional[float]:
        """Seconds until done at the current rate, or ``None`` before
        the first completion / without a total."""
        if self.total is None or not self.done:
            return None
        remaining = max(0, self.total - self.done)
        rate = self.rate()
        return remaining / rate if rate > 0 else None

    def render(self) -> str:
        text = f"{self.done}"
        if self.total is not None:
            text += f"/{self.total}"
        text += f" cells, {self.rate():.2f} cells/s"
        eta = self.eta_s()
        if eta is not None:
            text += f", ETA {eta:.0f}s"
        return text
