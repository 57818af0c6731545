"""The top-level WaveScalar processor object.

This is the API most users touch::

    from repro.core import WaveScalarConfig, WaveScalarProcessor
    from repro.workloads import get, Scale

    proc = WaveScalarProcessor(WaveScalarConfig(clusters=4, l2_mb=1))
    result = proc.run_workload(get("fft"), scale=Scale.SMALL, threads=8)
    print(result.aipc, result.area_mm2)
"""

from __future__ import annotations

from typing import Optional

from ..area.model import breakdown
from ..area.timing import timing_report
from ..isa.graph import DataflowGraph
from ..lang.kbound import set_k_bound
from ..place.placement import Placement
from ..place.snake import place
from ..sim.engine import Engine
from ..sim.failures import FixedPoint
from ..workloads.base import Scale, Workload
from .config import WaveScalarConfig
from .results import SimulationResult


def check_outputs(name: str, result: SimulationResult, expected) -> None:
    """Raise ``AssertionError`` when ``result``'s architectural outputs
    differ from the reference ``expected`` -- a simulator correctness
    bug, never a performance matter.  The message is what a sweep
    ledger records as the cell's ``failure_detail``."""
    got = result.outputs()
    if got != expected:
        raise AssertionError(
            f"{name}: simulator output {got!r} != reference {expected!r}"
        )


class WaveScalarProcessor:
    """A configured WaveScalar processor that can execute programs."""

    def __init__(
        self,
        config: WaveScalarConfig,
        max_cycles: int = 20_000_000,
        max_events: int = 200_000_000,
    ) -> None:
        self.config = config
        self.max_cycles = max_cycles
        self.max_events = max_events
        #: The :class:`~repro.sim.failures.FixedPoint` the last
        #: :meth:`run` proved itself stuck in (``None``: it did not) --
        #: the cause behind a budget failure no budget can cure.
        self.last_fixed_point: Optional[FixedPoint] = None
        self._area = breakdown(config)
        self._timing = timing_report(config)

    # ------------------------------------------------------------------
    @property
    def area_mm2(self) -> float:
        return self._area.total

    @property
    def frequency_ghz(self) -> float:
        return self._timing.frequency_ghz

    def describe(self) -> str:
        return (
            f"{self.config.describe()} -- {self.area_mm2:.0f} mm2 @ "
            f"{self.frequency_ghz:.2f} GHz ({self._timing.cycle_fo4:.0f} FO4)"
        )

    # ------------------------------------------------------------------
    def place(self, graph: DataflowGraph) -> Placement:
        """Bind a program's instructions to this processor's PEs."""
        return place(graph, self.config)

    def run(
        self,
        graph: DataflowGraph,
        placement: Optional[Placement] = None,
        k: Optional[int] = None,
        strict: bool = True,
        threads: Optional[int] = None,
        faults=None,
        sanitizer=None,
        trace=None,
        profile=None,
        compiled=None,
    ) -> SimulationResult:
        """Execute ``graph`` and return the full result bundle.

        ``k`` rebinds every loop's k-loop bound before execution
        (Table 4 tuning); ``strict`` raises on deadlock rather than
        returning a partial result; ``faults`` attaches a
        :class:`~repro.harness.faults.FaultPlan` for deterministic
        fault injection (harness testing); ``sanitizer`` attaches a
        :class:`~repro.analysis.RuntimeSanitizer` that audits token
        conservation, matching-table leaks, and queue bounds (query it
        after the run -- pair with ``strict=False`` to collect
        violations instead of raising on deadlock); ``trace`` attaches
        a :class:`~repro.sim.trace.Trace` recording pipeline events
        (export with ``trace.to_chrome(path)``); ``profile`` attaches
        a :class:`~repro.obs.PhaseProfile` attributing hot-loop time
        to pipeline phases; ``compiled`` passes the graph's pre-built
        :class:`~repro.sim.compile.CompiledGraph` decode straight to
        the engine (it must belong to ``graph``, so it cannot be
        combined with ``k`` rebinding, which derives a new graph).
        """
        if k is not None:
            graph = set_k_bound(graph, k)
        if placement is None:
            placement = self.place(graph)
        engine = Engine(
            graph, self.config, placement, max_cycles=self.max_cycles,
            max_events=self.max_events, compiled=compiled,
        )
        if faults is not None:
            engine.faults = faults
        if sanitizer is not None:
            engine.sanitizer = sanitizer
        if trace is not None:
            engine.trace = trace
        if profile is not None:
            engine.profile = profile
        try:
            stats = engine.run(strict=strict)
        finally:
            self.last_fixed_point = engine.fixed_point
            # The engine is cyclic garbage from here on (its hot-path
            # closures and store-buffer callbacks refer back to it), and
            # a process holding many compiled graphs rarely reaches a
            # full collection: emptying it frees its tables now, by
            # reference count, so peak memory does not grow with the
            # number of cells run.
            engine.__dict__.clear()
        return SimulationResult(
            program=graph.name,
            config=self.config,
            stats=stats,
            area=self._area,
            timing=self._timing,
            threads=threads,
        )

    def run_workload(
        self,
        workload: Workload,
        scale: Scale = Scale.SMALL,
        threads: Optional[int] = None,
        k: Optional[int] = None,
        seed: int = 0,
        check: bool = True,
        faults=None,
        sanitizer=None,
        strict: bool = True,
        trace=None,
        profile=None,
    ) -> SimulationResult:
        """Instantiate and execute one registry workload.

        With ``check`` (default) the architectural outputs are compared
        against the workload's pure-Python reference; a mismatch raises
        ``AssertionError`` -- a simulator correctness bug, never a
        performance matter.  An active ``faults`` plan skips the check:
        injected faults corrupt outputs by design.  ``sanitizer``,
        ``strict``, ``trace``, and ``profile`` pass through to
        :meth:`run`.
        """
        graph = workload.instantiate(
            scale=scale, threads=threads, k=k, seed=seed
        )
        result = self.run(
            graph, threads=threads, faults=faults, sanitizer=sanitizer,
            strict=strict, trace=trace, profile=profile,
        )
        if check and faults is None:
            check_outputs(workload.name, result, workload.expected(
                scale=scale, threads=threads, seed=seed
            ))
        return result

    def run_compiled(
        self,
        compiled,
        check: bool = True,
        faults=None,
        sanitizer=None,
        strict: bool = True,
        trace=None,
        profile=None,
    ) -> SimulationResult:
        """Execute a pre-built :class:`~repro.sim.compile
        .CompiledWorkload` (typically served by
        :func:`~repro.sim.compile.get_compiled`).

        The graph and its flat decode come straight from ``compiled``,
        so repeat runs of the same cell -- budget-escalation retries,
        sweep repetitions, attempts sent to one isolation child -- skip
        the instantiate/decode work entirely.  The thread count and k
        bound are part of the compile key, already baked into the
        graph.  Output checking compares against the workload's
        memoised reference outputs, exactly as :meth:`run_workload`
        does (and is likewise skipped under an active fault plan).
        """
        result = self.run(
            compiled.graph, threads=compiled.threads, faults=faults,
            sanitizer=sanitizer, strict=strict, trace=trace,
            profile=profile, compiled=compiled.decoded,
        )
        if check and faults is None:
            check_outputs(compiled.name, result,
                          compiled.expected_outputs())
        return result
