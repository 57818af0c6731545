"""Checkpointed design-space sweeps.

Turns a design list x workload suite into individual
``(config, workload, threads)`` cells, runs each through a
:class:`~repro.harness.supervisor.RunSupervisor`, and appends every
verdict to a JSONL :class:`~repro.harness.ledger.Ledger`.  Because
cells are keyed by content hash, an interrupted campaign -- even one
whose driver was SIGKILLed -- resumes with ``resume=True`` and
re-simulates nothing that already has a record.

Execution is organised into *lanes* (one per ``(design, workload)``
pair, sequential within, independent across) so ``jobs=N`` fans the
campaign out over N isolation children through
:mod:`repro.harness.scheduler` while the driver remains the single
ledger writer.  Aggregation walks the lanes in canonical order over
the content-hash-keyed record map, so the returned
:class:`~repro.design.pareto.ParetoPoint` list is identical for any
``jobs`` value and any completion order.

Aggregation is the paper's method (Section 4.2): per workload the
best-performing thread count wins, a failed workload scores zero AIPC,
and a design's suite score is the mean over workloads.

A sweep either runs every lane (one :func:`execute_lanes` call, any
``jobs``) or skips what cannot matter.  There is one skip loop,
:func:`_execute_skipping` -- skip scan, acquisition, one lane through
:func:`execute_lanes`, retrain, exact-verify -- and one dominance
test; ``prune``, ``surrogate`` and both together are its three switch
positions: whether the surrogate model trains, and whether the
untrained model's prior ``[0, static bound]`` may already skip.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from ..design.pareto import ParetoPoint
from ..design.space import DesignPoint
from ..obs.metrics import ThroughputMeter, aggregate_records
from ..workloads.base import Scale, Workload
from ..workloads.registry import get
from .ledger import OK, PREDICTED, SKIPPED, Ledger
from .scheduler import Lane, execute_lanes, static_rejection
from .spec import SWEEP_MAX_CYCLES, SWEEP_MAX_EVENTS, CellSpec
from .supervisor import RunSupervisor

__all__ = [
    "CellFailure",
    "SweepReport",
    "design_space_sweep",
    "static_rejection",
    "sweep_cells",
]


@dataclass
class CellFailure:
    """One workload that scored zero on one design, and why."""

    config: str
    workload: str
    threads: Optional[int]
    failure_class: str
    detail: str = ""

    def render(self) -> str:
        threads = f" x{self.threads}thr" if self.threads else ""
        return (
            f"{self.workload}{threads} on {self.config}: "
            f"{self.failure_class}"
            + (f" ({self.detail})" if self.detail else "")
        )


@dataclass
class SweepReport:
    """Cell accounting for one sweep invocation."""

    completed: int = 0  # cells simulated to success this run
    failed: int = 0  # cells recorded as failed this run
    invalid: int = 0  # cells statically rejected, never simulated
    poisoned: int = 0  # cells quarantined by the circuit breaker
    pruned_static: int = 0  # cells skipped by the static-bound pruner
    predicted: int = 0  # cells skipped on a surrogate prediction
    retried: int = 0  # total retry attempts across cells
    skipped: int = 0  # cells resumed from the ledger, not re-simulated
    torn_lines: int = 0  # truncated ledger lines seen while resuming
    corrupt_lines: int = 0  # checksum-failed lines seen while resuming
    #: Set when the campaign failure-rate budget aborted the run; the
    #: report is then partial by design.
    aborted: Optional[str] = None
    failures: list[CellFailure] = field(default_factory=list)
    #: Observability blocks keyed by subsystem.  What only the driver
    #: knows: ``"scheduler"`` (jobs, slot utilization, dispatches,
    #: crash retries -- filled by :mod:`repro.harness.scheduler`),
    #: ``"sweep"`` (wall time, cells per second), ``"batched"`` and
    #: ``"surrogate"``.  What the records know is folded from them:
    #: ``"compile_cache"`` (see :func:`_finish_backend_metrics`).
    #: All of it may differ between ``jobs`` values, so none of it is
    #: under the jobs-independence contract.
    metrics: dict = field(default_factory=dict)

    @property
    def total(self) -> int:
        return (self.completed + self.failed + self.invalid
                + self.poisoned + self.pruned_static + self.predicted
                + self.skipped)

    def summary(self) -> str:
        poisoned = (
            f" / {self.poisoned} poisoned" if self.poisoned else ""
        )
        if self.pruned_static:
            poisoned += f" / {self.pruned_static} pruned"
        if self.predicted:
            poisoned += f" / {self.predicted} predicted"
        lines = (
            f" [{self.torn_lines} torn ledger line(s) skipped]"
            if self.torn_lines else ""
        )
        if self.corrupt_lines:
            lines += (
                f" [{self.corrupt_lines} checksum-failed ledger "
                f"line(s) skipped]"
            )
        text = (
            f"cells: {self.completed} completed / {self.failed} failed "
            f"/ {self.invalid} invalid{poisoned} / {self.retried} "
            f"retried / {self.skipped} resumed ({self.total} total)"
            f"{lines}"
        )
        if self.aborted:
            text += f"\nABORTED: {self.aborted}"
        return text

    def metrics_summary(self) -> str:
        """One line per observability block, or '' when none were
        collected (e.g. a report built by hand in tests)."""
        lines = []
        sweep = self.metrics.get("sweep")
        if sweep:
            lines.append(
                f"throughput: {sweep['cells_per_s']:.2f} cells/s "
                f"({sweep['cells']} cells in {sweep['wall_s']:.1f}s)"
            )
        sched = self.metrics.get("scheduler")
        if sched:
            lines.append(
                f"scheduler: {sched['workers']} job(s), "
                f"{sched['utilization']:.0%} busy, "
                f"{sched['dispatched']} dispatched"
            )
        batched = self.metrics.get("batched")
        if batched:
            lines.append(
                f"batched: width {batched['batch_width']}, "
                f"{batched['batch_groups']} group(s) covering "
                f"{batched['batched_cells']} cell(s)"
            )
        cache = self.metrics.get("compile_cache")
        if cache:
            lines.append(
                f"compile cache: {cache['hits']} hit(s) / "
                f"{cache['misses']} miss(es) / "
                f"{cache['evictions']} eviction(s)"
            )
        surrogate = self.metrics.get("surrogate")
        if surrogate:
            lines.append(
                f"surrogate: {surrogate['simulated_cells']} simulated "
                f"/ {surrogate['predicted_cells']} predicted, "
                f"{surrogate['refits']} refit(s), "
                f"model {surrogate['model_hash']}; "
                f"{surrogate['prefetched']} prefetched, "
                f"{surrogate['prefetch_hits']} hit(s), "
                f"{surrogate['prefetch_reused']} reused"
            )
        return "\n".join(lines)


def _metered(
    lanes: Sequence[Lane],
    progress: Optional[Callable[[CellSpec, dict], None]],
) -> tuple[ThroughputMeter, Callable[[CellSpec, dict], None]]:
    """A throughput meter over every plannable cell, chained in front
    of the caller's progress callback.  The lane protocol can finish
    early (stop-on-failure), so the planned total is an upper bound
    and the ETA is conservative."""
    meter = ThroughputMeter(total=sum(len(lane.specs) for lane in lanes))

    def _note(spec: CellSpec, record: dict) -> None:
        meter.note()
        if progress is not None:
            progress(spec, record)

    return meter, _note


def _finish_sweep_metrics(report: SweepReport,
                          meter: ThroughputMeter) -> None:
    report.metrics["sweep"] = {
        "wall_s": round(meter.elapsed_s, 3),
        "cells": meter.done,
        "planned_cells": meter.total,
        "cells_per_s": round(meter.rate(), 3),
    }


def _finish_backend_metrics(report: SweepReport, supervisor,
                            done: dict[str, dict]) -> None:
    """The engine backend's observability: the compile cache's
    hits, misses and evictions summed over the campaign's records
    ``done`` (the :func:`~repro.obs.metrics.aggregate_records` fold
    that ``repro stats`` reads, whichever process ran each cell), and
    -- for the batched backend -- the grouping the scheduler achieved,
    which only the driver knows.
    """
    fold = aggregate_records(done.values())
    report.metrics["compile_cache"] = {
        kind: int(fold.histogram(f"compile_cache_{kind}").total)
        for kind in ("hits", "misses", "evictions")
    }
    if getattr(supervisor, "backend", None) != "batched":
        return
    sched = report.metrics.get("scheduler", {})
    report.metrics["batched"] = {
        "backend": supervisor.backend,
        "batch_width": supervisor.batch_width,
        "batch_groups": sched.get("batch_groups", 0),
        "batched_cells": sched.get("batched_cells", 0),
    }


def _given(**kwargs) -> dict:
    """The keyword arguments the caller actually passed (not ``None``),
    so an omitted one keeps :class:`RunSupervisor`'s own default."""
    return {key: value for key, value in kwargs.items()
            if value is not None}


def _open_campaign(ledger_path, resume: bool, surrogate: bool = False):
    """What every sweep entry point starts from: the ledger (or
    ``None``), the resumed records it may reuse, and a fresh report.

    A ``predicted`` record is a surrogate annotation, not a
    measurement: unless this campaign runs the surrogate, resumed
    predicted cells are dropped here and re-simulated (the measurement
    then supersedes the prediction by ``seq``).
    """
    ledger = Ledger(ledger_path) if ledger_path else None
    done = ledger.load() if (ledger is not None and resume) else {}
    if not surrogate:
        done = {
            cell: record for cell, record in done.items()
            if record.get("status") != PREDICTED
        }
    report = SweepReport()
    if ledger is not None:
        report.torn_lines = ledger.torn_lines
        report.corrupt_lines = ledger.corrupt_lines
    return ledger, done, report


def sweep_cells(
    specs: Iterable[CellSpec],
    *,
    ledger_path=None,
    resume: bool = False,
    supervisor: Optional[RunSupervisor] = None,
    progress: Optional[Callable[[CellSpec, dict], None]] = None,
    prevalidate: bool = True,
    jobs: Optional[int] = 1,
    failure_budget: Optional[float] = None,
) -> tuple[dict[str, dict], SweepReport]:
    """Run an explicit cell list; returns (records by hash, report).

    Cells here are mutually independent, so each becomes its own
    single-cell lane and ``jobs>1`` runs them fully concurrently.
    ``supervisor`` (default: a :class:`RunSupervisor` with its own
    defaults) decides isolation, retries and the backend.
    """
    specs = list(specs)
    if supervisor is None:
        supervisor = RunSupervisor()
    ledger, done, report = _open_campaign(ledger_path, resume)
    lanes = [
        Lane(key=(index,), specs=[spec])
        for index, spec in enumerate(specs)
    ]
    meter, noted = _metered(lanes, progress)
    try:
        execute_lanes(
            lanes, jobs=jobs, supervisor=supervisor, ledger=ledger,
            done=done, report=report, progress=noted,
            prevalidate=prevalidate, failure_budget=failure_budget,
        )
    finally:
        getattr(supervisor, "close", lambda: None)()
    _finish_sweep_metrics(report, meter)
    # ``.get``: an aborted (failure-budget) run leaves later cells
    # without records; the partial map is the point.
    records = {
        spec.cell_hash(): done[spec.cell_hash()]
        for spec in specs if spec.cell_hash() in done
    }
    _finish_backend_metrics(report, supervisor, done)
    return records, report


# ----------------------------------------------------------------------
# The Figure 6/7 evaluation loop
# ----------------------------------------------------------------------
#: Thread counts tried for each multithreaded workload; the best is
#: reported (Section 4.2: "we ran each application with a range of
#: thread counts ... and report results for the best-performing thread
#: count").
THREAD_CANDIDATES = (1, 2, 4, 8, 16, 32, 64)


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


def build_lanes(
    designs: Sequence[DesignPoint],
    names: Sequence[str],
    scale: Scale,
    threaded: bool,
    candidates: Sequence[int],
    max_cycles: int,
    max_events: int,
) -> list[Lane]:
    """One lane per ``(design, workload)`` pair, in canonical
    design-major order.  A lane's cells are its thread-count
    escalation sequence; the lane protocol stops probing upward after
    the first failure (more threads only add pressure on a design
    that is already over budget)."""
    lanes: list[Lane] = []
    feasible_memo: dict[str, Sequence[Optional[int]]] = {}
    for design_index, design in enumerate(designs):
        for name in names:
            workload = get(name)
            if threaded and workload.multithreaded:
                if name not in feasible_memo:
                    feasible_memo[name] = feasible_thread_counts(
                        workload, scale, candidates
                    )
                thread_counts: Sequence[Optional[int]] = \
                    feasible_memo[name]
            else:
                thread_counts = (None,)
            lanes.append(Lane(
                key=(design_index, name),
                specs=[
                    CellSpec(
                        config=design.config, workload=name,
                        scale=scale.value, threads=threads,
                        max_cycles=max_cycles, max_events=max_events,
                    )
                    for threads in thread_counts
                ],
            ))
    return lanes


def _optimistic_score(record: dict) -> float:
    """The score a skipped cell contributes to its design's mixed
    aggregate: the static AIPC bound for ``pruned_static`` records,
    the *skip-time* conformal upper interval for ``predicted`` ones.

    Predicted cells deliberately replay the interval frozen into the
    record when the skip was decided, never a retrained model's view:
    the skip test proved the design dominated at exactly that value,
    so re-deriving it from a later (possibly wider) model could lift a
    dominated design onto the frontier.
    """
    if record["status"] == PREDICTED:
        interval = record.get("aipc_interval")
        if interval:
            return float(interval[1])
    return float(record.get("aipc_bound", 0.0))


class LaneScore(NamedTuple):
    """What one lane's records say so far (see :func:`_lane_score`)."""

    score: Optional[float]  # best AIPC over the scored cells
    complete: bool  # the lane needs no further simulation
    pruned: bool  # the score leans on a bound or a prediction
    failure: Optional[tuple[CellSpec, dict]] = None  # what stopped it
    winner: Optional[CellSpec] = None  # the best ``ok`` cell


def _lane_score(lane: Lane, records: dict[str, dict]) -> LaneScore:
    """Score one lane: the best-performing thread count wins, a failed
    lane keeps what it scored before the failure (else zero).

    ``complete`` means the lane needs no further simulation: every
    cell has a record, or an early cell failed (the lane protocol
    stops probing after a failure -- more threads only add pressure on
    a design that already failed -- so the score stands).  ``pruned``
    flags lanes carrying a ``pruned_static`` or ``predicted`` record:
    such a cell contributes its optimistic score (static bound, or the
    frozen surrogate upper interval -- see :func:`_optimistic_score`),
    so the lane's score is an upper bound, not a measurement, and the
    design is disqualified as a skip-test comparator.  The skip test
    fires only when a design is dominated even at that optimistic
    score, so the Pareto frontier is unchanged.  ``winner`` (highest
    AIPC, lowest thread count on a tie) is for callers that re-open it.
    """
    best: Optional[float] = None
    winner: Optional[CellSpec] = None
    measured = 0.0
    pruned = False
    for spec in lane.specs:
        record = records.get(spec.cell_hash())
        if record is None:
            # Never ran (yet): nothing stopped the lane, it is open.
            return LaneScore(best, False, pruned, winner=winner)
        if record["status"] == OK:
            score = record.get("aipc", 0.0)
            if winner is None or score > measured:
                winner, measured = spec, score
        elif record["status"] in SKIPPED:
            pruned = True
            score = _optimistic_score(record)
        else:
            return LaneScore(best or 0.0, True, pruned, (spec, record),
                             winner)
        best = score if best is None else max(best, score)
    return LaneScore(best or 0.0, True, pruned, winner=winner)


def _aggregate(
    designs: Sequence[DesignPoint],
    names: Sequence[str],
    lanes: Sequence[Lane],
    records: dict[str, dict],
    report: SweepReport,
) -> list[ParetoPoint]:
    """Fold the record map back into per-design Pareto points.

    Pure function of (lanes, records): runs after all execution, so
    the result is independent of cell completion order.  Failures are
    appended to ``report`` in canonical lane order.
    """
    points: list[ParetoPoint] = []
    for design_index, design in enumerate(designs):
        config = design.config
        per_workload: list[float] = []
        for name_index, name in enumerate(names):
            lane = lanes[design_index * len(names) + name_index]
            scored = _lane_score(lane, records)
            if scored.failure is not None:
                spec, record = scored.failure
                report.failures.append(CellFailure(
                    config=config.describe(), workload=name,
                    threads=spec.threads,
                    failure_class=record.get("failure_class", "?"),
                    detail=record.get("failure_detail") or "",
                ))
            per_workload.append(scored.score or 0.0)
        aipc = sum(per_workload) / len(per_workload) if per_workload \
            else 0.0
        points.append(ParetoPoint(
            label=config.describe(), area=design.area_mm2,
            performance=aipc, payload=config,
        ))
    return points


def _execute_skipping(
    designs: Sequence[DesignPoint],
    names: Sequence[str],
    lanes: Sequence[Lane],
    execute: Callable[..., dict],
    *,
    ledger: Optional[Ledger],
    done: dict[str, dict],
    report: SweepReport,
    progress: Callable[[CellSpec, dict], None],
    train: bool,
    prior_skips: bool,
    supervisor: RunSupervisor,
) -> None:
    """The skip loop: measure one lane at a time, and skip designs that
    cannot reach the frontier even at an optimistic score.

    Each round runs three steps (DESIGN.md section 5k):

    1. **Skip scan** -- a design is skipped when its *optimistic
       mixed aggregate* (measured lanes at their score, unmeasured
       cells at the model's upper interval, which never exceeds the
       sound static bound) is dominated by a fully-measured design
       of no larger area.  Skipped cells get ledger records carrying
       the value *frozen at skip time*; resume and aggregation replay
       exactly that value.  Designs whose unmeasured intervals are
       wider than :data:`~repro.surrogate.UNCERTAINTY_THRESHOLD` are
       never skipped by a fitted model -- a model that cannot commit
       must measure.
    2. **Acquisition** -- among unresolved designs, pick the one with
       the highest expected frontier improvement (mean-mixed aggregate
       minus the measured incumbent at <= its area; ties to the
       smaller area), then its widest-interval lane; measure that one
       lane through ``execute``.  While the model is still its prior
       (``[0, bound]``, so "widest" means "highest bound": the most
       optimistic term of the aggregate is replaced by a measurement
       first) designs are simply measured in ascending order to
       establish the incumbent.
    3. **Retrain** on every measured record (``ok`` at its AIPC,
       ``failed``/``poisoned`` at the zero the aggregation assigns).

    The two switches select the three policies
    :func:`design_space_sweep` offers:

    * ``train=False, prior_skips=True`` (``prune``): the model never
      trains, so every skip is the static-bound prune test; skipped
      cells are recorded ``pruned_static`` with their bound (proof of
      frontier identity in DESIGN.md section 5h).
    * ``train=True, prior_skips=False`` (``surrogate``): a conformal
      quantile forest replaces the prior after ``min_train`` measured
      rows, and only the fitted model may skip; skipped cells are
      recorded ``predicted`` with the frozen interval.
    * both: the surrogate additionally skips while it is still the
      prior (recorded ``predicted`` under model hash ``"prior"``).

    When every design is resolved, an **exact-verify** pass recomputes
    the frontier: any frontier design still carrying ``predicted``
    records has them revoked and is re-measured (the model mis-ranked
    it; soundness requires every frontier point be a measurement).
    In calibrated operation this pass finds nothing -- a skip happens
    only when the frozen upper interval is already dominated -- but it
    is what *guarantees* the returned frontier is bit-identical to the
    exhaustive sweep's, independent of model quality.

    Decisions are serial (``execute`` is called with one lane and
    ``jobs=1``): every decision depends on the measurements before it,
    and determinism across ``--jobs`` values is part of the sweep
    contract.  Simulation overlaps the driver by one cell: when the
    model trains, each measured lane is followed by the acquisition
    step under the pre-refit model (the *guess*), whose lane's first
    unmeasured cell ``supervisor.prefetch`` (``supervisor`` is the one
    ``execute`` runs cells on) starts in the idle isolation child
    before the refit.  The supervisor keeps that
    verdict until the loop acquires the cell, so the ledger sees what
    a serial run writes, in the same order (DESIGN.md section 5k).
    """
    from ..analysis.dataflow import bound_for_cell
    from ..design.pareto import pareto_front
    from ..surrogate.features import cell_features, training_rows
    from ..surrogate.search import UNCERTAINTY_THRESHOLD, SurrogateModel

    n_names = len(names)
    n_designs = len(designs)
    lane_bounds: dict[tuple, float] = {}
    cell_bounds: dict[str, object] = {}
    for lane in lanes:
        best = 0.0
        for spec in lane.specs:
            bound = bound_for_cell(spec)
            cell_bounds[spec.cell_hash()] = bound
            best = max(best, bound.aipc_bound)
        lane_bounds[lane.key] = best

    # Resume accounting: lanes already complete never reach
    # execute_lanes, so count their resumed records here (partially
    # complete lanes are counted by execute_lanes when they run).
    for lane in lanes:
        if _lane_score(lane, done).complete:
            report.skipped += sum(
                1 for spec in lane.specs if spec.cell_hash() in done
            )

    # Fixed seed: the surrogate's decisions are part of the sweep's
    # determinism contract (identical ledger for any --jobs value),
    # so its randomness cannot depend on the environment.
    model = SurrogateModel(seed=0)
    predictions: dict[str, object] = {}  # cell hash -> CellPrediction
    # Cell hash -> feature vector: a function of spec and bound only,
    # so it is computed once per sweep, not once per refit.
    features: dict[str, list[float]] = {}

    def _predict(spec: CellSpec):
        cell = spec.cell_hash()
        prediction = predictions.get(cell)
        if prediction is None:
            if model.fitted:
                _predict_open()
                return predictions[cell]
            prediction = model.predict_cell(spec, cell_bounds[cell])
            predictions[cell] = prediction
        return prediction

    def _predict_open() -> None:
        """The first miss after a refit answers every unmeasured cell
        in one forest walk (bit-identical to asking one by one)."""
        cells, pairs = [], []
        for lane in lanes:
            for spec in lane.specs:
                cell = spec.cell_hash()
                if cell not in done:
                    cells.append(cell)
                    pairs.append((spec, cell_bounds[cell]))
                    if cell not in features:
                        features[cell] = cell_features(
                            spec, bound=cell_bounds[cell]
                        )
        answers = model.predict_cells(
            pairs, rows=[features[cell] for cell in cells]
        )
        predictions.update(zip(cells, answers))

    def _retrain() -> None:
        if not train:
            return
        pairs = [
            (spec, done[spec.cell_hash()])
            for lane in lanes for spec in lane.specs
            if spec.cell_hash() in done
        ]
        X, y, groups = training_rows(pairs, bounds=cell_bounds)
        if model.fit(X, y, groups=groups):
            predictions.clear()

    def _dlanes(index: int) -> Sequence[Lane]:
        return lanes[index * n_names:(index + 1) * n_names]

    # The design table: per design, its lanes' scores, whether every
    # lane is complete, and its clean aggregate -- the fully-measured
    # suite aggregate, or ``None`` when any lane is incomplete or
    # scored by a bound/prediction (such a design cannot serve as a
    # skip-test comparator).  A row changes only with its own design's
    # records: a frozen design's row is rescored on the spot, and a
    # round starts by rescoring the ``stale`` rows -- every design at
    # first, then the one just measured or the exact-verify pass's
    # offenders.
    scores: list[list[LaneScore]] = [[] for _ in range(n_designs)]
    resolved = [False] * n_designs
    clean: list[Optional[float]] = [None] * n_designs
    stale = set(range(n_designs))

    def _rescore(index: int) -> None:
        row = [_lane_score(lane, done) for lane in _dlanes(index)]
        scores[index] = row
        resolved[index] = all(scored.complete for scored in row)
        clean[index] = None
        if all(scored.complete and not scored.pruned for scored in row):
            total = 0.0
            for scored in row:
                total += scored.score or 0.0
            clean[index] = total / n_names

    def _open_specs(index: int) -> list[CellSpec]:
        """The design's unmeasured cells in lanes still open."""
        return [
            spec
            for lane, scored in zip(_dlanes(index), scores[index])
            if not scored.complete
            for spec in lane.specs if spec.cell_hash() not in done
        ]

    def _mixed(index: int, optimistic: bool) -> float:
        """Suite aggregate with unmeasured cells filled in by the
        model: the upper interval (``optimistic``, the skip test) or
        the point estimate (the acquisition rank)."""
        total = 0.0
        for lane, scored in zip(_dlanes(index), scores[index]):
            if scored.complete:
                total += scored.score or 0.0
                continue
            fill = 0.0
            for spec in lane.specs:
                if spec.cell_hash() in done:
                    continue
                prediction = _predict(spec)
                fill = max(fill, prediction.hi if optimistic
                           else prediction.aipc)
            total += max(scored.score or 0.0, fill)
        return total / n_names

    def _max_width(index: int) -> float:
        width = 0.0
        for spec in _open_specs(index):
            width = max(width, _predict(spec).width)
        return width

    areas = [design.area_mm2 for design in designs]

    def _dominated(index: int, aggregate: float) -> bool:
        """Whether a fully-measured design of no larger area already
        beats ``aggregate`` -- the one dominance test; areas are
        compared, not assumed sorted.  The equal-aggregate arm mirrors
        the stable sort inside :func:`pareto_front`: at identical area
        and performance the earlier design takes the frontier slot, so
        an exact tie against an earlier design still means dominated.
        """
        area = areas[index] + 1e-12
        for other, other_clean in enumerate(clean):
            if other_clean is None or other == index \
                    or areas[other] > area:
                continue
            if other_clean > aggregate or (other_clean == aggregate
                                           and other < index):
                return True
        return False

    def _freeze(index: int) -> None:
        for spec in _open_specs(index):
            cell = spec.cell_hash()
            if train:
                record = Ledger.record_predicted(
                    spec, cell_bounds[cell], _predict(spec)
                )
                report.predicted += 1
            else:
                record = Ledger.record_pruned(spec, cell_bounds[cell])
                report.pruned_static += 1
            if ledger is not None:
                ledger.append(record)
            done[cell] = record
            progress(spec, record)
        _rescore(index)

    def _incumbent(index: int) -> float:
        area = areas[index] + 1e-12
        best = 0.0
        for other, other_clean in enumerate(clean):
            if other_clean is not None and areas[other] <= area:
                best = max(best, other_clean)
        return best

    def _predicted(index: int) -> list[str]:
        """The design's cells recorded ``predicted``, by hash."""
        return [
            spec.cell_hash() for lane in _dlanes(index)
            for spec in lane.specs
            if done.get(spec.cell_hash(), {}).get("status") == PREDICTED
        ]

    def _predicted_on_frontier() -> list[int]:
        """Indices of frontier designs still carrying ``predicted``
        records -- the exact-verify offenders."""
        points = []
        carries: dict[str, int] = {}
        for index, design in enumerate(designs):
            label = design.config.describe()
            points.append(ParetoPoint(
                label=label, area=design.area_mm2,
                performance=sum(
                    scored.score or 0.0 for scored in scores[index]
                ) / n_names,
            ))
            if _predicted(index):
                carries[label] = index
        return sorted(
            carries[point.label]
            for point in pareto_front(points)
            if point.label in carries
        )

    def _acquire(remaining: list[int]) -> tuple[int, Lane]:
        """The acquisition step: the design to measure next and its
        lane.  Used by the round and by the guess alike."""
        if not model.fitted:
            pick = remaining[0]  # in order: build the incumbent
        else:
            pick = max(
                remaining,
                key=lambda index: (
                    _mixed(index, optimistic=False)
                    - _incumbent(index),
                    -index,
                ),
            )
        open_lanes = [
            lane for lane, scored in zip(_dlanes(pick), scores[pick])
            if not scored.complete
        ]

        def _lane_width(lane: Lane) -> float:
            return max(
                (_predict(spec).width for spec in lane.specs
                 if spec.cell_hash() not in done),
                default=0.0,
            )

        # Widest interval first (the measurement the model learns the
        # most from), then highest bound, then lane key -- all
        # deterministic.
        return pick, min(
            open_lanes,
            key=lambda ln: (-_lane_width(ln), -lane_bounds[ln.key],
                            ln.key),
        )

    # Only a training loop has a refit to hide.  ``execute_lanes``
    # takes any supervisor with ``run``; one without ``prefetch`` just
    # gets no overlap.
    prefetch = getattr(supervisor, "prefetch", None) if train else None

    def _guess() -> None:
        """Prefetch the cell the next round most likely measures: the
        acquisition as it stands before the refit, ignoring the skip
        scan.  A wrong guess costs the child's time, never a record."""
        for index in stale:
            _rescore(index)
        stale.clear()
        remaining = [
            index for index in range(n_designs) if not resolved[index]
        ]
        if remaining:
            _, lane = _acquire(remaining)
            prefetch(next(spec for spec in lane.specs
                          if spec.cell_hash() not in done))

    must_measure: set[int] = set()
    simulated_at_start = (report.completed + report.failed
                          + report.poisoned)
    _retrain()  # resumed measurements train the model immediately
    while not report.aborted:
        for index in stale:
            _rescore(index)
        stale.clear()
        if model.fitted or prior_skips:
            for index in range(n_designs):
                if index in must_measure or resolved[index]:
                    continue
                # The width gate only applies to the fitted model;
                # the prior's [0, bound] interval is sound by
                # construction, so width cannot disqualify it.
                if model.fitted and \
                        _max_width(index) > UNCERTAINTY_THRESHOLD:
                    continue
                if _dominated(index, _mixed(index, optimistic=True)):
                    _freeze(index)
        remaining = [
            index for index in range(n_designs) if not resolved[index]
        ]
        if not remaining:
            offenders = _predicted_on_frontier()
            if not offenders:
                break
            for index in offenders:
                must_measure.add(index)
                stale.add(index)
                for cell in _predicted(index):
                    if done.pop(cell, None) is not None:  # once per cell
                        report.predicted -= 1
            continue
        pick, lane = _acquire(remaining)
        execute([lane], jobs=1)
        stale.add(pick)
        if prefetch is not None and not report.aborted:
            _guess()
        _retrain()
    if train:
        report.metrics["surrogate"] = {
            "model_hash": model.model_hash,
            "refits": model.refits,
            "train_rows": model.train_rows,
            "predicted_cells": report.predicted,
            "simulated_cells": (report.completed + report.failed
                                + report.poisoned) - simulated_at_start,
            "verified_designs": sorted(
                designs[index].config.describe()
                for index in must_measure
            ),
            "prior_skips": bool(prior_skips),
            "prefetched": getattr(supervisor, "prefetched", 0),
            "prefetch_hits": getattr(supervisor, "prefetch_hits", 0),
            "prefetch_reused": getattr(supervisor, "prefetch_reused", 0),
        }


def design_space_sweep(
    designs: Sequence[DesignPoint],
    names: Sequence[str],
    scale: Scale = Scale.SMALL,
    threaded: bool = False,
    candidates: Sequence[int] = THREAD_CANDIDATES,
    *,
    ledger_path=None,
    resume: bool = False,
    timeout_s: Optional[float] = None,
    isolation: str = "process",
    max_retries: int = 2,
    escalation: float = 4.0,
    max_cycles: int = SWEEP_MAX_CYCLES,
    max_events: int = SWEEP_MAX_EVENTS,
    supervisor: Optional[RunSupervisor] = None,
    progress: Optional[Callable[[CellSpec, dict], None]] = None,
    prevalidate: bool = True,
    jobs: Optional[int] = 1,
    failure_budget: Optional[float] = None,
    prune: bool = False,
    surrogate: bool = False,
    backend: Optional[str] = None,
    batch_width: Optional[int] = None,
) -> tuple[list[ParetoPoint], SweepReport]:
    """The fault-tolerant Figure 6/7 evaluation loop.

    Every ``(design, workload, threads)`` cell runs supervised; the
    returned points -- one per design, in order -- are identical for
    every ``jobs`` setting (``1`` = one cell at a time, ``N>1`` = N
    cells in flight, each in its own isolation child, ``None``/``0`` =
    one per core; ``jobs != 1`` needs process isolation).

    ``prune=True`` turns on static-bound pruning: cells whose AIPC
    upper bound cannot lift their design past an already-measured
    design of no larger area are skipped with ``pruned_static``
    ledger records (attempts=0, bound attached).  The returned Pareto
    *frontier* is bit-identical to the unpruned sweep's; dominated
    (off-frontier) points may report the optimistic mixed aggregate
    instead of the measured one.

    ``surrogate=True`` turns on the active-learning sweep: a conformal
    quantile-forest trained on the measurements so far orders the
    remaining cells and skips designs whose bound-clipped upper
    interval cannot reach the frontier, recording them as
    ``predicted`` (point estimate, interval, and model hash
    attached).  An exact-verify pass re-measures any frontier design
    the model skipped, so the returned frontier is bit-identical to
    the exhaustive sweep's.  Resuming *without* ``surrogate`` drops
    predicted records and re-simulates those cells.

    Both are the one skip loop (:func:`_execute_skipping`): ``prune``
    alone is the surrogate whose model never trains, and the two
    together let the surrogate skip while it is still its prior.  The
    loop decides one lane at a time (``jobs`` is ignored) because
    each decision depends on the cells measured before it; under
    process isolation a training loop still overlaps each refit with
    the cell it expects to measure next (``RunSupervisor.prefetch``),
    which changes no record.

    ``backend="batched"`` groups same-workload cells into batch
    groups of up to ``batch_width`` (see
    :data:`~repro.harness.supervisor.BACKENDS`), composing with both
    ``jobs`` (a group is one dispatch in flight) and the skip loop (which
    dispatches lanes one at a time, so each cell runs alone).
    Records are bit-identical across backends apart from wall-clock
    fields and the ``backend`` annotation.
    """
    if supervisor is None:
        supervisor = RunSupervisor(
            max_retries=max_retries, escalation=escalation,
            isolation=isolation,
            **_given(timeout_s=timeout_s, backend=backend,
                     batch_width=batch_width),
        )
    ledger, done, report = _open_campaign(ledger_path, resume, surrogate)
    lanes = build_lanes(
        designs, names, scale, threaded, candidates, max_cycles,
        max_events,
    )
    meter, noted = _metered(lanes, progress)
    execute = partial(
        execute_lanes, supervisor=supervisor, ledger=ledger, done=done,
        report=report, progress=noted, prevalidate=prevalidate,
        failure_budget=failure_budget,
    )
    try:
        if prune or surrogate:
            _execute_skipping(
                designs, names, lanes, execute, ledger=ledger, done=done,
                report=report, progress=noted, train=surrogate,
                prior_skips=prune, supervisor=supervisor,
            )
        else:
            execute(lanes, jobs=jobs)
    finally:
        # Once, around every execute_lanes call of the skip loop.
        getattr(supervisor, "close", lambda: None)()
    _finish_sweep_metrics(report, meter)
    _finish_backend_metrics(report, supervisor, done)
    points = _aggregate(designs, names, lanes, done, report)
    return points, report
