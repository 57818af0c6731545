"""Experiment drivers: one entry point per table/figure of the paper.

Each function here regenerates one piece of the evaluation (Section 4)
and is called by the corresponding benchmark in ``benchmarks/`` and by
the example scripts.  Every design-space study is one campaign of the
sweep harness (:mod:`repro.harness`) under the reproduction's fixed
rule (see :func:`evaluate_design_space`); single cells a script looks
at on their own are memoised per process by :func:`run_cached`.
"""

from __future__ import annotations

import logging
from dataclasses import replace
from typing import Iterable, Optional, Sequence

from ..area.model import chip_area
from ..design.pareto import ParetoPoint
from ..design.scaling import ScalingStudy, run_scaling_study
from ..design.space import DesignPoint, viable_designs
from ..design.virtualization import TuningResult, tune_application
from ..harness.scheduler import execute_lanes
from ..harness.spec import CellSpec
from ..harness.supervisor import RunSupervisor, simulate_cell
from ..harness.sweep import (
    THREAD_CANDIDATES,
    _lane_score,
    build_lanes,
    design_space_sweep,
)
from ..sim.engine import RUN_MAX_CYCLES, RUN_MAX_EVENTS
from ..sim.failures import FAILURE_CLASSES, SimulationDeadlock
from ..workloads.base import Scale
from ..workloads.registry import SPLASH_NAMES, get
from .config import WaveScalarConfig
from .results import SimulationResult

logger = logging.getLogger("repro.harness")

#: Memoised verdicts: cell -> (True, result) or (False, failure).  The
#: cell includes the cycle/event budgets -- a deadlock verdict (or a
#: completed run) observed under a small budget must never be reused
#: for a request with a larger one -- and negative results are cached
#: explicitly so a known-failing cell is not re-simulated either.
_CACHE: dict[CellSpec, tuple[bool, object]] = {}
#: The lane records :func:`suite_results` has seen, by cell hash.
_RECORDS: dict[str, dict] = {}


def clear_cache() -> None:
    _CACHE.clear()
    _RECORDS.clear()


def run_cached(
    config: WaveScalarConfig,
    workload_name: str,
    scale: Scale = Scale.SMALL,
    threads: Optional[int] = None,
    k: Optional[int] = None,
    max_cycles: int = RUN_MAX_CYCLES,
    max_events: int = RUN_MAX_EVENTS,
) -> SimulationResult:
    """Memoised execution of one cell (architectural check included),
    keeping the whole :class:`SimulationResult` where a ledger record
    keeps a summary."""
    spec = CellSpec(
        config=config, workload=workload_name, scale=scale.value,
        threads=threads, k=k, max_cycles=max_cycles,
        max_events=max_events,
    )
    hit = _CACHE.get(spec)
    if hit is not None:
        ok, payload = hit
        if not ok:
            raise payload
        return payload
    try:
        result = simulate_cell(spec)
    except SimulationDeadlock as exc:
        _CACHE[spec] = (False, exc)
        raise
    _CACHE[spec] = (True, result)
    return result


# ----------------------------------------------------------------------
# Suite-level evaluation (Figures 6 and 7 and Table 5)
# ----------------------------------------------------------------------
def _may_score_zero(failure_class) -> bool:
    """Only a simulation that could not finish may score zero: any
    other failure (a rejected configuration, a wrong answer) would put
    a wrong point in a figure."""
    return failure_class in FAILURE_CLASSES


def evaluate_design_space(
    designs: Iterable[DesignPoint],
    names: Sequence[str],
    scale: Scale = Scale.SMALL,
    threaded: bool = False,
    *,
    ledger_path=None,
    resume: bool = False,
    jobs: Optional[int] = 1,
) -> list[ParetoPoint]:
    """AIPC-vs-area points for a suite over a set of designs: one
    :func:`~repro.harness.sweep.design_space_sweep` campaign under the
    reproduction's rule, the same for every argument combination.

    A cell that exceeds the sweep budget (5 M cycles / 1 M events: a
    starved configuration crawling through matching-table thrash)
    scores zero and is not retried under a larger one -- such designs
    are dominated by construction and the paper's analysis would
    discard them the same way.  Every zero is logged with its cell.
    A cell that failed otherwise raises (see :func:`_may_score_zero`).

    ``jobs`` (``None`` = one per core) never changes the points.
    Cells run inline at ``jobs=1``, in isolation children otherwise,
    which ``jobs>1`` needs.
    """
    points, report = design_space_sweep(
        list(designs), names, scale=scale, threaded=threaded,
        candidates=THREAD_CANDIDATES, ledger_path=ledger_path,
        resume=resume, isolation="inline" if jobs == 1 else "process",
        jobs=jobs, max_retries=0,
    )
    for failure in report.failures:
        logger.warning("%s", failure.render())
    unmeasured = [
        failure.render() for failure in report.failures
        if not _may_score_zero(failure.failure_class)
    ]
    if unmeasured:
        raise RuntimeError(
            f"{len(unmeasured)} cell(s) failed for a reason other than "
            "the simulation budget; refusing to score them zero:\n  "
            + "\n  ".join(unmeasured)
        )
    return points


# ----------------------------------------------------------------------
# Table 4: matching-table tuning
# ----------------------------------------------------------------------
def tuning_config(
    k: int,
    matching_entries: int,
    pes: int = 2,
) -> WaveScalarConfig:
    """The tuning testbed: V=256 with a variable matching table.

    The testbed uses the smallest domain that *fits* the program
    (``pes`` PEs) so each PE's instruction store fills toward its 256
    slots, recreating the per-PE matching pressure the paper tunes
    against -- our kernels are far smaller than Spec binaries, so on a
    full cluster every PE would hold a handful of instructions and no
    over-subscription would ever bind.
    """
    base = WaveScalarConfig(
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
    static_size = len(workload.instantiate(scale=scale, threads=threads))
    pes = -(-static_size // 256)  # smallest PE count that fits at V=256
    pes += pes % 2  # pods need pairs
    failures = []

    def evaluate(k: int, matching_entries: int) -> float:
        config = tuning_config(k, matching_entries, pes=pes)
        try:
            result = run_cached(
                config, workload_name, scale, threads=threads, k=k,
                max_cycles=3_000_000, max_events=5_000_000,
            )
        except SimulationDeadlock as exc:
            # Pathological over-subscription thrashes so hard the run
            # exceeds its cycle budget; the paper's sweep stops at a
            # "significant decrease" -- score it as one.
            failures.append(type(exc).__name__)
            return 0.0
        return result.aipc

    result = tune_application(workload_name, evaluate, v=256)
    if not result.answered and failures:  # the last run ended the sweep
        result = replace(result, failure=failures[-1])
    return result


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
    checkpoint every cell, the replicated designs' included; ``jobs``
    parallelises the lanes."""
    designs = list(designs) if designs is not None else viable_designs()
    sweep = dict(scale=scale, threaded=True, ledger_path=ledger_path,
                 resume=resume, jobs=jobs)
    points = evaluate_design_space(designs, names, **sweep)
    study = run_scaling_study(points)
    b, d, e16 = evaluate_design_space(
        [DesignPoint(config=scaled.config, area_mm2=scaled.area_mm2)
         for scaled in (study.b, study.d, study.e16)],
        names, **sweep,
    )
    measured = {
        "a": study.a.performance,
        "b": b.performance,
        "c": study.c.performance,
        "d": d.performance,
        "e": study.e.performance,
        "e16": e16.performance,
    }
    return study, measured


# ----------------------------------------------------------------------
# Figure 8: traffic distribution
# ----------------------------------------------------------------------
def suite_results(
    config: WaveScalarConfig,
    names: Sequence[str],
    scale: Scale = Scale.SMALL,
    threaded: bool = False,
) -> list[SimulationResult]:
    """The full result of each workload's best-performing run on one
    configuration, in ``names`` order: the sweep's lanes, run here
    against an in-memory record map.  A record keeps no per-level
    traffic counters, so each lane's winning cell is re-opened with
    :func:`run_cached`.
    """
    design = DesignPoint(config=config, area_mm2=chip_area(config))
    lanes = build_lanes(
        [design], names, scale, threaded, THREAD_CANDIDATES,
        RUN_MAX_CYCLES, RUN_MAX_EVENTS,
    )
    # Unvalidated, like any single run: this measures a configuration,
    # it does not admit it to a design space.
    execute_lanes(
        lanes, done=_RECORDS, prevalidate=False,
        supervisor=RunSupervisor(isolation="inline", max_retries=0),
    )
    results = []
    for lane in lanes:
        scored = _lane_score(lane, _RECORDS)
        spec, stopped = scored.winner, scored.failure
        if stopped and (spec is None or not _may_score_zero(
                stopped[1]["failure_class"])):
            # Nothing measured, or stopped by more than a budget:
            # re-opening the cell that stopped the lane raises it.
            spec = stopped[0]
        results.append(
            run_cached(config, spec.workload, scale, threads=spec.threads)
        )
    return results


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
    for result in suite_results(config, names, scale, threaded):
        for kind, per_level in result.stats.messages.items():
            for level, count in per_level.items():
                totals[level] += count
                totals[kind] += count
                grand += count
    if grand == 0:
        return {k: 0.0 for k in totals}
    return {k: v / grand for k, v in totals.items()}
