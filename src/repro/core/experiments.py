"""Experiment drivers: one entry point per table/figure of the paper.

Each function here regenerates one piece of the evaluation (Section 4)
and is called by the corresponding benchmark in ``benchmarks/`` and by
the example scripts.  Results are memoised per process because the
Pareto analysis and the scaling study share many (config, workload)
evaluations.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from typing import Iterable, Optional, Sequence

from ..design.pareto import ParetoPoint, frontier_rows
from ..design.scaling import ScalingStudy, run_scaling_study
from ..design.space import DesignPoint, viable_designs
from ..design.virtualization import (
    TuningResult,
    tune_application,
)
from ..sim.failures import SimulationDeadlock
from ..workloads.base import Scale, Workload
from ..workloads.registry import SPLASH_NAMES, get
from .config import WaveScalarConfig
from .processor import WaveScalarProcessor
from .results import SimulationResult

logger = logging.getLogger("repro.harness")

#: Thread counts tried for each Splash2 run; the best is reported
#: (Section 4.2: "we ran each application with a range of thread
#: counts ... and report results for the best-performing thread
#: count").
THREAD_CANDIDATES = (1, 2, 4, 8, 16, 32, 64)

#: Memoised verdicts: key -> (True, result) or (False, failure).  The
#: key includes the cycle/event budgets -- a deadlock verdict (or a
#: completed run) observed under a small budget must never be reused
#: for a request with a larger one -- and negative results are cached
#: explicitly so a known-failing cell is not re-simulated either.
_CACHE: dict[tuple, tuple[bool, object]] = {}


def clear_cache() -> None:
    _CACHE.clear()


def run_cached(
    config: WaveScalarConfig,
    workload_name: str,
    scale: Scale = Scale.SMALL,
    threads: Optional[int] = None,
    k: Optional[int] = None,
    seed: int = 0,
    max_cycles: int = 20_000_000,
    max_events: int = 200_000_000,
) -> SimulationResult:
    """Memoised workload execution (architectural check included)."""
    key = (config, workload_name, scale, threads, k, seed,
           max_cycles, max_events)
    hit = _CACHE.get(key)
    if hit is not None:
        ok, payload = hit
        if not ok:
            raise payload
        return payload
    workload = get(workload_name)
    proc = WaveScalarProcessor(
        config, max_cycles=max_cycles, max_events=max_events
    )
    try:
        result = proc.run_workload(
            workload, scale=scale, threads=threads, k=k, seed=seed
        )
    except SimulationDeadlock as exc:
        _CACHE[key] = (False, exc)
        raise
    _CACHE[key] = (True, result)
    return result


# ----------------------------------------------------------------------
# Thread-count selection (Splash2)
# ----------------------------------------------------------------------
def feasible_thread_counts(
    workload: Workload, scale: Scale,
    candidates: Sequence[int] = THREAD_CANDIDATES,
) -> list[int]:
    """Thread counts the kernel's problem size admits."""
    feasible = []
    for threads in candidates:
        try:
            workload.instantiate(scale=scale, threads=threads)
        except ValueError:
            continue
        feasible.append(threads)
    return feasible


def best_threaded_result(
    config: WaveScalarConfig,
    workload_name: str,
    scale: Scale = Scale.SMALL,
    candidates: Sequence[int] = THREAD_CANDIDATES,
    max_cycles: int = 20_000_000,
    max_events: int = 200_000_000,
) -> SimulationResult:
    """The best-AIPC thread count for one workload on one config."""
    workload = get(workload_name)
    best: SimulationResult | None = None
    feasible = feasible_thread_counts(workload, scale, candidates)
    for index, threads in enumerate(feasible):
        try:
            result = run_cached(
                config, workload_name, scale, threads=threads,
                max_cycles=max_cycles, max_events=max_events,
            )
        except SimulationDeadlock:
            if best is None and index == len(feasible) - 1:
                raise  # every thread count crawled; surface it
            # More threads only add pressure on a configuration that
            # is already over budget; stop probing upward.
            break
        if best is None or result.aipc > best.aipc:
            best = result
    if best is None:
        raise SimulationDeadlock(
            f"{workload_name}: every thread count exceeded the cycle "
            f"budget on {config.describe()}"
        )
    return best


# ----------------------------------------------------------------------
# Suite-level evaluation (Figures 6 and 7 and Table 5)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WorkloadFailure:
    """One workload that scored zero on one configuration, and why."""

    workload: str
    failure_class: str
    max_cycles: int
    max_events: int
    detail: str = ""

    def render(self) -> str:
        return (
            f"{self.workload}: {self.failure_class} under "
            f"{self.max_cycles} cycles / {self.max_events} events"
            + (f" -- {self.detail}" if self.detail else "")
        )


class SuiteMean(float):
    """A mean-AIPC value that also carries per-workload failure
    reports.  Behaves exactly like ``float`` in arithmetic and
    comparisons, so existing callers are unaffected; auditing code
    reads ``.failures`` to see which workloads scored zero and why."""

    failures: tuple[WorkloadFailure, ...]

    def __new__(cls, value: float, failures: Sequence[WorkloadFailure] = ()):
        obj = super().__new__(cls, value)
        obj.failures = tuple(failures)
        return obj


def suite_mean_aipc(
    config: WaveScalarConfig,
    names: Sequence[str],
    scale: Scale = Scale.SMALL,
    threaded: bool = False,
    candidates: Sequence[int] = THREAD_CANDIDATES,
    sweep_max_cycles: int = 5_000_000,
    sweep_max_events: int = 1_000_000,
) -> SuiteMean:
    """Average AIPC of a workload group on one configuration.

    A run that exceeds ``sweep_max_cycles`` (a pathologically starved
    configuration crawling through matching-table thrash) scores 0 --
    such designs are dominated by construction and the paper's
    analysis would discard them the same way.  Unlike the old silent
    ``pass``, every zero-scored workload is recorded on the returned
    :class:`SuiteMean` and logged, so discarded designs stay auditable.
    """
    total = 0.0
    failures: list[WorkloadFailure] = []
    for name in names:
        try:
            if threaded:
                result = best_threaded_result(
                    config, name, scale, candidates,
                    max_cycles=sweep_max_cycles,
                    max_events=sweep_max_events,
                )
            else:
                result = run_cached(
                    config, name, scale, max_cycles=sweep_max_cycles,
                    max_events=sweep_max_events,
                )
            total += result.aipc
        except SimulationDeadlock as exc:
            detail = str(exc).splitlines()[0] if str(exc) else ""
            failure = WorkloadFailure(
                workload=name,
                failure_class=type(exc).__name__,
                max_cycles=sweep_max_cycles,
                max_events=sweep_max_events,
                detail=detail,
            )
            failures.append(failure)
            logger.warning(
                "%s scored 0 on %s: %s", name, config.describe(),
                failure.render(),
            )
    return SuiteMean(total / len(names), failures)


def evaluate_design_space(
    designs: Iterable[DesignPoint],
    names: Sequence[str],
    scale: Scale = Scale.SMALL,
    threaded: bool = False,
    candidates: Sequence[int] = THREAD_CANDIDATES,
    *,
    ledger_path=None,
    resume: bool = False,
    timeout_s: Optional[float] = None,
    isolation: str = "process",
    jobs: Optional[int] = 1,
) -> list[ParetoPoint]:
    """AIPC-vs-area points for a suite over a set of designs.

    With ``ledger_path``/``resume`` -- or ``jobs`` other than 1 -- the
    evaluation routes through the fault-tolerant harness
    (:func:`repro.harness.sweep.design_space_sweep`): every cell runs
    supervised, is checkpointed to the JSONL ledger, and an
    interrupted campaign resumes without re-simulating finished
    cells.  ``jobs=N`` fans independent ``(design, workload)`` lanes
    out over N worker processes (``None``/``0`` = one per core); the
    returned points are identical for every ``jobs`` value.  The
    default path stays in-process and memoised.
    """
    if ledger_path is not None or resume or jobs != 1:
        from ..harness.sweep import design_space_sweep

        points, _report = design_space_sweep(
            list(designs), names, scale=scale, threaded=threaded,
            candidates=candidates, ledger_path=ledger_path,
            resume=resume, timeout_s=timeout_s, isolation=isolation,
            jobs=jobs,
        )
        return points
    points = []
    for design in designs:
        aipc = suite_mean_aipc(
            design.config, names, scale, threaded, candidates
        )
        points.append(
            ParetoPoint(
                label=design.config.describe(),
                area=design.area_mm2,
                performance=float(aipc),
                payload=design.config,
            )
        )
    return points


def pareto_table(
    points: Sequence[ParetoPoint],
) -> str:
    """Render Table 5-style frontier rows as text."""
    lines = [
        f"{'id':>3} {'configuration':<42} {'area':>7} {'AIPC':>6} "
        f"{'dA%':>6} {'dAIPC%':>7}"
    ]
    for i, row in enumerate(frontier_rows(points), start=1):
        da = f"{row.area_increase * 100:.1f}%" if row.area_increase is not \
            None else "na"
        dp = f"{row.perf_increase * 100:.1f}%" if row.perf_increase is not \
            None else "na"
        lines.append(
            f"{i:>3} {row.point.label:<42} {row.point.area:>7.0f} "
            f"{row.point.performance:>6.2f} {da:>6} {dp:>7}"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Table 4: matching-table tuning
# ----------------------------------------------------------------------
def tuning_config(
    k: int,
    matching_entries: int,
    pes: int = 2,
    base: Optional[WaveScalarConfig] = None,
) -> WaveScalarConfig:
    """The tuning testbed: V=256 with a variable matching table.

    The testbed uses the smallest domain that *fits* the program
    (``pes`` PEs) so each PE's instruction store fills toward its 256
    slots, recreating the per-PE matching pressure the paper tunes
    against -- our kernels are far smaller than Spec binaries, so on a
    full cluster every PE would hold a handful of instructions and no
    over-subscription would ever bind.
    """
    base = base or WaveScalarConfig(
        clusters=1, domains_per_cluster=1,
        pes_per_domain=max(2, min(8, pes)),
        virtualization=256, l1_kb=32, l2_mb=1,
    )
    entries = min(matching_entries, 1 << 14)
    entries -= entries % base.matching_associativity
    return replace(
        base,
        matching_entries=max(base.matching_associativity, entries),
        matching_hash_k=max(1, k),
    )


def tune_workload(
    workload_name: str,
    scale: Scale = Scale.TINY,
    threads: Optional[int] = None,
) -> TuningResult:
    """One Table 4 row: sweep k against an (effectively) infinite
    matching table, then oversubscribe to find u_opt."""
    workload = get(workload_name)
    kwargs = {"threads": threads} if workload.multithreaded else {}
    static_size = len(workload.instantiate(scale=scale, threads=threads))
    pes = -(-static_size // 256)  # smallest PE count that fits at V=256
    pes += pes % 2  # pods need pairs

    def evaluate(k: int, matching_entries: int) -> float:
        config = tuning_config(k, matching_entries, pes=pes)
        try:
            result = run_cached(
                config, workload_name, scale, k=k, max_cycles=3_000_000,
                max_events=5_000_000, **kwargs,
            )
        except SimulationDeadlock:
            # Pathological over-subscription thrashes so hard the run
            # exceeds its cycle budget; the paper's sweep stops at a
            # "significant decrease" -- score it as one.
            return 0.0
        return result.aipc

    return tune_application(workload_name, evaluate, v=256)


# ----------------------------------------------------------------------
# Figure 7: the scaling study
# ----------------------------------------------------------------------
def scaling_study(
    scale: Scale = Scale.SMALL,
    names: Sequence[str] = SPLASH_NAMES,
    designs: Optional[Sequence[DesignPoint]] = None,
    *,
    ledger_path=None,
    resume: bool = False,
    jobs: Optional[int] = 1,
) -> tuple[ScalingStudy, dict[str, float]]:
    """Reproduce the a/b/c/d/e analysis; returns the study plus the
    measured AIPC of each named design.  ``ledger_path``/``resume``
    checkpoint the design-space pass through the sweep harness;
    ``jobs`` parallelises it."""
    designs = list(designs) if designs is not None else viable_designs()
    points = evaluate_design_space(
        designs, names, scale, threaded=True,
        ledger_path=ledger_path, resume=resume, jobs=jobs,
    )

    def perf_of(config: WaveScalarConfig) -> float:
        return suite_mean_aipc(config, names, scale, threaded=True)

    study = run_scaling_study(points, perf_of)
    measured = {
        "a": study.a.performance,
        "b": perf_of(study.b.config),
        "c": study.c.performance,
        "d": perf_of(study.d.config),
        "e": study.e.performance,
        "e16": perf_of(study.e16.config),
    }
    return study, measured


# ----------------------------------------------------------------------
# Figure 8: traffic distribution
# ----------------------------------------------------------------------
def traffic_profile(
    config: WaveScalarConfig,
    names: Sequence[str],
    scale: Scale = Scale.SMALL,
    threaded: bool = False,
) -> dict[str, float]:
    """Aggregate message distribution over a suite (Figure 8 bars)."""
    totals = {"pod": 0, "domain": 0, "cluster": 0, "grid": 0,
              "operand": 0, "memory": 0}
    grand = 0
    for name in names:
        if threaded:
            result = best_threaded_result(config, name, scale)
        else:
            result = run_cached(config, name, scale)
        for kind, per_level in result.stats.messages.items():
            for level, count in per_level.items():
                totals[level] += count
                totals[kind] += count
                grand += count
    if grand == 0:
        return {k: 0.0 for k in totals}
    return {k: v / grand for k, v in totals.items()}
