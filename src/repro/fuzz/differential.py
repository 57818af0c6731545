"""Differential execution: one program, six oracles, zero tolerance.

For each fuzz program the harness runs

* the reference interpreter (:mod:`repro.lang.interp`) -- golden
  outputs;
* the engine, serially, on each probe config -- outputs and SimStats;
* the frozen seed engine (``repro.sim._legacy``, the one independent
  SimStats implementation) on each probe config -- SimStats, or the
  failure's class, message and diagnostics, must equal the engine's
  field for field;
* one lockstep batch over all probe configs of the program, with a
  quantum small enough that ceilings interrupt every cell mid-run --
  each cell's verdict must equal its serial one.  The quantum (64) is
  also shorter than the two quiet periods the engine needs to prove a
  deflection fixed point (``Engine._fixed_point``; its detection state
  lives in ``_drain`` locals), so a stuck program is jumped over in the
  serial run and interpreted bounce by bounce in the batch: for the
  programs that exhaust a budget this comparison is a second
  jump-vs-no-jump oracle beside the seed engine;
* the A-rule static bound (:func:`repro.analysis.dataflow
  .graph_statics` + ``compute_bound``) -- measured AIPC must never
  exceed it;
* the graph linter -- generated programs must be error-free.

Any disagreement becomes a :class:`Divergence`.  Floating-point
comparisons are exact (bit-identity is the contract between engines)
except that NaN is treated as equal to NaN: the generator can
legitimately manufacture NaNs (inf - inf), and every engine must
produce the *same* NaN-shaped result, which ``==`` alone cannot
express.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Callable, Optional

from ..analysis.dataflow import compute_bound, graph_statics
from ..analysis.lint import lint_graph
from ..core.config import WaveScalarConfig
from ..isa.graph import DataflowGraph
from ..lang.interp import DeadlockError, interpret
from ..place.snake import place
from ..sim._legacy.engine import Engine as SeedEngine
from ..sim.backends import batched_available
from ..sim.engine import Engine
from ..sim.failures import (
    CycleBudgetExhausted,
    EventBudgetExhausted,
    SimulationDeadlock,
)

#: Probe configs: the roomy default plus a starved design (1 cluster,
#: tiny matching table, no L2) that forces eviction/retry paths.
PROBE_CONFIGS = (
    WaveScalarConfig(),
    WaveScalarConfig(clusters=1, virtualization=16, matching_entries=16,
                     matching_banks=2, matching_associativity=2, l2_mb=0),
)

#: Budgets far above anything a recipe-sized program can need, so a
#: budget trip is itself a reportable anomaly, not noise.
MAX_FIRINGS = 2_000_000
MAX_CYCLES = 2_000_000
MAX_EVENTS = 5_000_000

#: Lockstep quantum of the batch oracle: recipe programs run for a few
#: hundred to a few thousand cycles, so this cuts every cell into many
#: ``_drain`` calls.
LOCKSTEP_QUANTUM = 64

#: A tiny slack on the bound comparison would hide real soundness
#: bugs; the bound is computed in exact arithmetic, so none is given.
BOUND_EPS = 0.0


@dataclass(frozen=True)
class Divergence:
    """One observed disagreement between oracles."""

    kind: str  # output | stats | bound | deadlock | lint | error
    detail: str
    config: str = ""


@dataclass
class DiffReport:
    """Everything the harness learned about one program."""

    name: str
    divergences: list = field(default_factory=list)
    graph_len: int = 0
    dynamic_instructions: int = 0

    @property
    def clean(self) -> bool:
        return not self.divergences


def values_equal(a: list, b: list) -> bool:
    """Exact elementwise equality, with NaN == NaN."""
    if len(a) != len(b):
        return False
    for x, y in zip(a, b):
        if x != y and not (x != x and y != y):
            return False
    return True


def _stats_diff(ours: dict, theirs: dict, other: str) -> Optional[str]:
    """First field where two SimStats dicts disagree, or None."""
    for key in sorted(set(ours) | set(theirs)):
        x, y = ours.get(key), theirs.get(key)
        if x != y and not _nan_equal(x, y):
            return f"{key}: serial={x!r} {other}={y!r}"
    return None


def _nan_equal(x, y) -> bool:
    if isinstance(x, dict) and isinstance(y, dict):
        return set(x) == set(y) and all(
            _nan_equal(x[k], y[k]) for k in x
        )
    if isinstance(x, (list, tuple)) and isinstance(y, (list, tuple)):
        return len(x) == len(y) and all(
            _nan_equal(a, b) for a, b in zip(x, y)
        )
    return x == y or (x != x and y != y)


def _run(engine) -> tuple:
    """One engine run as ``(stats, error)``, exactly one of them set."""
    try:
        return engine.run(strict=True), None
    except Exception as exc:  # noqa: BLE001 - the failure is the data
        return None, exc


def _verdict_diff(serial: tuple, theirs: tuple, other: str
                  ) -> Optional[str]:
    """How ``other``'s ``(stats, error)`` differs from the serial
    engine's, or None: SimStats field for field when both completed;
    class, message and diagnostics when both failed."""
    (stats, error), (their_stats, their_error) = serial, theirs
    if error is None and their_error is None:
        return _stats_diff(asdict(stats), asdict(their_stats), other)

    def ending(e):
        if e is None:
            return "completed"
        return (type(e).__name__, str(e), getattr(e, "diagnostics", None))
    ours, their = ending(error), ending(their_error)
    if ours != their:
        return f"serial ended {ours!r} but {other} ended {their!r}"
    return None


def diff_graph(
    graph: DataflowGraph,
    configs=PROBE_CONFIGS,
    defect: Optional[Callable[[list], list]] = None,
    check_batched: bool = True,
    check_bound: bool = True,
) -> DiffReport:
    """Cross-check one graph against every oracle.

    ``defect`` is a harness-boundary corruption applied to the serial
    engine's outputs (see :mod:`repro.fuzz.defects`) -- the seeded-bug
    mechanism that proves the harness and minimizer actually detect a
    broken engine.
    """
    report = DiffReport(name=graph.name, graph_len=len(graph))

    lint = lint_graph(graph)
    if not lint.clean:
        errors = [d for d in lint.report.diagnostics
                  if d.severity.name == "ERROR"]
        report.divergences.append(Divergence(
            "lint", f"{len(errors)} lint error(s): "
            + "; ".join(str(d) for d in errors[:3])
        ))

    try:
        ref = interpret(graph, max_firings=MAX_FIRINGS)
    except DeadlockError as exc:
        ref = None
        ref_error = str(exc)
    if ref is not None:
        report.dynamic_instructions = ref.dynamic_instructions
        ref_outputs = ref.output_values()

    statics = None
    if check_bound and ref is not None:
        statics = graph_statics(graph, name=graph.name)

    def engine(cls, config, placement):
        return cls(graph, config, placement, max_cycles=MAX_CYCLES,
                   max_events=MAX_EVENTS)

    placements = [place(graph, config) for config in configs]
    serial = []  # one (stats, error) per config
    for i, (config, placement) in enumerate(zip(configs, placements)):
        label = config.describe()
        verdict = _run(engine(Engine, config, placement))
        serial.append(verdict)
        delta = _verdict_diff(
            verdict, _run(engine(SeedEngine, config, placement)),
            "seed-engine",
        )
        if delta is not None:
            report.divergences.append(Divergence(
                "stats", f"serial/seed-engine verdicts differ -- {delta}",
                config=label,
            ))
        stats, exc = verdict
        if isinstance(exc, (CycleBudgetExhausted, EventBudgetExhausted)):
            # Starved probe configs (index > 0) can genuinely livelock
            # in matching-table thrash -- the paper's non-viable
            # designs.  That is an explained outcome (the seed engine
            # and the lockstep batch must reproduce the identical
            # failure).  The roomy primary config must always complete
            # a recipe program.
            if i == 0:
                report.divergences.append(Divergence(
                    "budget",
                    f"primary config exhausted its budget: {exc}",
                    config=label,
                ))
            continue
        if isinstance(exc, SimulationDeadlock):
            if ref is not None:
                report.divergences.append(Divergence(
                    "deadlock",
                    f"interpreter completed but engine stuck: {exc}",
                    config=label,
                ))
            continue
        if exc is not None:  # engine crash is always reportable
            report.divergences.append(Divergence(
                "error", f"engine raised {type(exc).__name__}: {exc}",
                config=label,
            ))
            continue
        if ref is None:
            report.divergences.append(Divergence(
                "deadlock",
                f"engine completed but interpreter deadlocked: "
                f"{ref_error}", config=label,
            ))
            continue

        outputs = stats.output_values()
        if defect is not None:
            outputs = defect(list(outputs))
        if not values_equal(outputs, ref_outputs):
            report.divergences.append(Divergence(
                "output",
                f"engine {outputs!r} != reference {ref_outputs!r}",
                config=label,
            ))

        if statics is not None:
            bound = compute_bound(statics, config)
            if stats.aipc > bound.aipc_bound + BOUND_EPS:
                report.divergences.append(Divergence(
                    "bound",
                    f"measured AIPC {stats.aipc:.6f} exceeds static "
                    f"bound {bound.aipc_bound:.6f} "
                    f"(roof {bound.binding_roof})",
                    config=label,
                ))

    if check_batched and batched_available():
        from ..sim.batched import BatchedEngine

        outcomes = BatchedEngine(
            [engine(Engine, config, placement)
             for config, placement in zip(configs, placements)],
            quantum=LOCKSTEP_QUANTUM,
        ).run(strict=True)
        for config, verdict, outcome in zip(configs, serial, outcomes):
            delta = _verdict_diff(
                verdict, (outcome.stats, outcome.error), "lockstep"
            )
            if delta is not None:
                report.divergences.append(Divergence(
                    "stats", f"serial/lockstep verdicts differ -- {delta}",
                    config=config.describe(),
                ))
    return report
