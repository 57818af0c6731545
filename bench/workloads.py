"""The five benchmark workloads.

Each is a closed loop with one client: the driver issues one call at
a time (``jobs=1``), so at most one busy process exists at any
instant.  A *pass* is a fixed amount of work; a run repeats whole
passes (see ``run.py``) and reports the median pass.

Sizes are fixed here and nowhere else.  ``smoke=True`` swaps in the
2-design x 2-workload / 2-cell variants that later PRs use to prove
the harness still runs.
"""

from __future__ import annotations

import hashlib
import os
import resource
import time
from dataclasses import dataclass, field

import calibrate

STUDY_NAMES = ("gzip", "mcf", "twolf", "ammp", "art", "equake")
#: Every 4th viable design: 17 designs x 6 workloads = 102 cells.
STUDY_STRIDE = 4
#: Trimmed from the CLI defaults (5M cycles, 2 retries) so the
#: budget-escalation path runs exactly once per exhausted cell.
STUDY_MAX_CYCLES = 1_000_000
STUDY_MAX_RETRIES = 1

CELL_CONFIG = dict(clusters=4, virtualization=128, matching_entries=128,
                   l2_mb=1)
CELL_THREADS = 16
#: ammp/mcf/gzip grow super-linearly in host time per event at medium
#: scale; gemm_os/radix/fft stay linear and act as the control.
LONG_CELLS = ("ammp", "mcf", "gzip", "gemm_os", "radix", "fft")

STUDY_POLICIES = {
    "study_exhaustive": dict(backend="plain"),
    "study_batched": dict(backend="batched", batch_width=16),
    "study_surrogate": dict(surrogate=True, prune=True),
}

WORKLOADS = (
    "study_exhaustive", "study_batched", "study_surrogate",
    "cells_cold", "cells_long",
)


@dataclass
class PassResult:
    wall_s: float  # calibrated seconds, like every other time here
    raw_wall_s: float
    cpu_s: float
    cells: int  # cells that reached a terminal outcome
    failed: int  # failed, poisoned, or failed the output check
    events: int  # engine calendar events behind those cells
    cell_walls: list = field(default_factory=list)
    #: Exact, repeatable facts about the outputs (what checks compare).
    facts: dict = field(default_factory=dict)
    #: Layer counts the workload reads off the program's own reports.
    counts: dict = field(default_factory=dict)


def timed(meter, cpu_started: float) -> dict:
    """The time fields of a pass whose region ``meter`` covered.  The
    calibration samples inside the region are pure CPU and not part of
    it, so their time comes off the CPU reading too."""
    cpu_raw = cpu_seconds() - cpu_started - meter.sample_s
    return {
        "wall_s": meter.calibrated_s, "raw_wall_s": meter.raw_s,
        "cpu_s": cpu_raw * meter.factor, "cell_walls": meter.noted,
    }


def cpu_seconds() -> float:
    """User + system CPU of this process and its waited-for children."""
    return sum(
        usage.ru_utime + usage.ru_stime
        for usage in (resource.getrusage(resource.RUSAGE_SELF),
                      resource.getrusage(resource.RUSAGE_CHILDREN))
    )


class Study:
    """One design-space sweep of the study under one execution policy."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.policy = STUDY_POLICIES[name]

    def setup(self, seed: int, smoke: bool) -> None:
        """The study is one fixed input: ``seed`` is not used.  The
        public sweep API takes no data seed, and the two things a seed
        could pick change the amount of work -- another design subset
        by 25% of wall time, another workload-name order by 40% on
        ``study_surrogate`` (its skip decisions follow lane order)."""
        from repro.design import viable_designs

        designs = viable_designs()[::STUDY_STRIDE]
        self.names = STUDY_NAMES
        self.max_cycles = STUDY_MAX_CYCLES
        if smoke:
            # The smallest design and the first V16/M16 one (whose
            # twolf cell exhausts its budget, so the retry path runs).
            designs = [designs[0], designs[13]]
            self.names = ("gzip", "twolf")
            self.max_cycles = 100_000
        self.designs = designs

    def run_pass(self, tmp_dir, index: int) -> PassResult:
        import repro.harness.sweep as sweep
        from repro.analysis.dataflow import clear_statics_cache
        from repro.design import pareto
        from repro.sim.compile import cache_info, clear_cache
        from repro.workloads.base import Scale

        # Every pass starts from the same process state.
        clear_cache()
        clear_statics_cache()
        ledger_path = os.path.join(tmp_dir, f"ledger-{index}.jsonl")
        meter = calibrate.Meter()

        def cell_done(spec, record) -> None:
            # The per-cell callback is the only place the sweep hands
            # control back, so that is where calibration samples go.
            # A cell's wall is the one its ledger record holds:
            # engine-side for ok cells, all attempts for failed ones.
            if record.get("attempts"):
                meter.note(record["metrics"]["wall_s"])
            meter.tick(force=False)

        cpu0 = cpu_seconds()
        points, report = sweep.design_space_sweep(
            self.designs, self.names, Scale.TINY, False,
            ledger_path=ledger_path, jobs=1, isolation="process",
            max_cycles=self.max_cycles, max_retries=STUDY_MAX_RETRIES,
            progress=cell_done, **self.policy,
        )
        front = pareto.pareto_front(points)
        meter.tick()
        times = timed(meter, cpu0)

        # The read beside the writes: one resume-style pass over the
        # finished ledger (timed as harness.ledger.load_s when traced).
        from repro.harness.ledger import Ledger

        records = Ledger(ledger_path).load()
        simulated = [r for r in records.values() if r.get("attempts")]
        ok = [r for r in simulated if r["status"] == "ok"]
        failed = [r for r in simulated if r["status"] != "ok"]
        events = sum(r["metrics"]["events"] for r in ok) + sum(
            (r.get("diagnostics") or {}).get("events_processed", 0)
            for r in failed
        )
        digest = hashlib.sha256(repr(sorted(
            (r["hash"], r["cycles"], r["dynamic_instructions"],
             r["alpha_instructions"], r["metrics"]["events"])
            for r in ok
        )).encode()).hexdigest()
        cache = cache_info()
        batched = report.metrics.get("batched", {})
        groups = batched.get("batch_groups", 0)
        return PassResult(
            **times, cells=len(records),
            failed=len(failed), events=events,
            facts={
                "frontier": [[p.area, p.performance] for p in front],
                "ok_digest": digest,
                "cells": len(records),
                "simulated_cells": len(simulated),
                "failed_hashes": sorted(r["hash"] for r in failed),
            },
            counts={
                "harness.sweep.simulated_cells": len(simulated),
                "harness.sweep.pruned_cells": report.pruned_static,
                "harness.sweep.predicted_cells": report.predicted,
                "harness.supervisor.attempts":
                    sum(r["attempts"] for r in simulated),
                "harness.supervisor.retries":
                    sum(r["retries"] for r in simulated),
                "harness.ledger.bytes": os.path.getsize(ledger_path),
                "sim.compile.cache_hits": cache["hits"] + sum(
                    r["metrics"].get("compile_cache_hits", 0) for r in ok),
                "sim.compile.cache_misses": cache["misses"] + sum(
                    r["metrics"].get("compile_cache_misses", 0)
                    for r in ok),
                "sim.batched.mean_width":
                    batched.get("batched_cells", 0) / groups
                    if groups else 0.0,
            },
        )

    def check(self, facts: dict, expected: dict, seed: int) -> list:
        """Problems with one pass's outputs against the pins (the
        study does not depend on the seed, so they hold at every one)."""
        problems = []
        want = expected["study"]
        if facts["frontier"] != want["frontier"]:
            problems.append(
                f"frontier {facts['frontier']} != pinned "
                f"{want['frontier']}"
            )
        if facts["cells"] != want["cells"]:
            problems.append(
                f"{facts['cells']} cells recorded, expected "
                f"{want['cells']}"
            )
        if self.unexpected_failures(facts, expected):
            problems.append(
                f"cells failed that the pins say complete: "
                f"{sorted(set(facts['failed_hashes']) - set(want['failed_hashes']))}"
            )
        if self.name == "study_surrogate":
            if facts["simulated_cells"] != \
                    want["surrogate_simulated_cells"]:
                problems.append(
                    f"{facts['simulated_cells']} cells simulated, "
                    f"pinned {want['surrogate_simulated_cells']}"
                )
            return problems
        if facts["ok_digest"] != want["ok_digest"]:
            problems.append("ok-record digest differs from the pin")
        if facts["failed_hashes"] != want["failed_hashes"]:
            problems.append(
                f"budget-exhausted cells {facts['failed_hashes']} != "
                f"pinned {want['failed_hashes']}"
            )
        return problems

    @staticmethod
    def unexpected_failures(facts: dict, expected: dict) -> int:
        """Failed cells other than the pinned budget-exhausted ones.
        Those are a named outcome of the study (the design scores
        zero), not a failed benchmark operation."""
        return len(set(facts["failed_hashes"])
                   - set(expected["study"]["failed_hashes"]))


class Cells:
    """Single cells run in-process, one after the other."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.cold = name == "cells_cold"

    def setup(self, seed: int, smoke: bool) -> None:
        from repro.core.config import WaveScalarConfig
        from repro.workloads.base import Scale
        from repro.workloads.registry import all_names, get

        self.seed = seed
        self.config = WaveScalarConfig(**CELL_CONFIG)
        if self.cold:
            names = all_names()
            self.scale = Scale.SMALL
            if smoke:
                names = ["gzip", "fft"]
        else:
            names = list(LONG_CELLS)
            self.scale = Scale.MEDIUM
            if smoke:
                names = ["gemm_os", "fft"]
        self.cells = [
            (name, CELL_THREADS if get(name).multithreaded else None)
            for name in names
        ]
        if not self.cold:
            # Compilation is set-up: the timed region is the engine.
            from repro.sim.compile import compile_workload

            self.compiled = [
                compile_workload(name, scale=self.scale, threads=threads,
                                 seed=seed)
                for name, threads in self.cells
            ]
            for compiled in self.compiled:
                compiled.expected_outputs()

    def run_pass(self, tmp_dir, index: int) -> PassResult:
        from repro.sim.compile import clear_cache

        clear_cache()
        run_cell = self._cold_cell if self.cold else self._long_cell
        pins, failed, events = {}, 0, 0
        meter = calibrate.Meter()
        cpu0 = cpu_seconds()
        for position, (name, _) in enumerate(self.cells):
            cell_started = time.perf_counter()
            stats, correct = run_cell(position)
            meter.note(time.perf_counter() - cell_started)
            meter.tick()  # one segment per cell
            failed += not correct
            events += stats.events_processed
            pins[name] = [stats.cycles, stats.events_processed]
        return PassResult(
            **timed(meter, cpu0),
            cells=len(self.cells), failed=failed, events=events,
            facts={"cells": pins, "failed_cells": failed},
        )

    def _cold_cell(self, position: int):
        """What ``repro run`` costs the first time: build, decode,
        place, construct, simulate, check against the reference."""
        import repro.place.snake as snake
        import repro.sim.compile as compile_
        from repro.sim.engine import Engine
        from repro.workloads.registry import get

        name, threads = self.cells[position]
        workload = get(name)
        graph = workload.instantiate(
            scale=self.scale, threads=threads, seed=self.seed
        )
        decoded = compile_.compile_graph(graph)
        placement = snake.place(graph, self.config)
        engine = Engine(graph, self.config, placement, compiled=decoded)
        stats = engine.run()
        expected = workload.expected(
            scale=self.scale, threads=threads, seed=self.seed
        )
        return stats, stats.output_values() == expected

    def _long_cell(self, position: int):
        from repro.core.processor import WaveScalarProcessor

        compiled = self.compiled[position]
        # The comparison check=True would make, without its raise: a
        # wrong output is counted, and the remaining cells still run.
        result = WaveScalarProcessor(self.config).run_compiled(
            compiled, check=False
        )
        return result.stats, \
            result.outputs() == compiled.expected_outputs()

    @staticmethod
    def unexpected_failures(facts: dict, expected: dict) -> int:
        return facts["failed_cells"]

    def check(self, facts: dict, expected: dict, seed: int) -> list:
        problems = []
        if facts["failed_cells"]:
            problems.append(
                f"{facts['failed_cells']} cell(s) failed the "
                f"reference-output check"
            )
        if seed == 0 and facts["cells"] != expected[self.name]:
            # Input data is seeded, so (cycles, events) pin at seed 0.
            problems.append(
                f"(cycles, events) {facts['cells']} != pinned "
                f"{expected[self.name]}"
            )
        return problems


def make(name: str):
    return Study(name) if name in STUDY_POLICIES else Cells(name)


def area_err_max(rows: list) -> float:
    """Worst relative error of the area model against the paper's
    Table 5 areas -- the only accuracy reference the repo holds
    (simulated AIPC is unvalidated against hardware)."""
    from repro.area.model import breakdown
    from repro.core.config import WaveScalarConfig

    worst = 0.0
    for clusters, entries, l1_kb, l2_mb, paper_mm2 in rows:
        config = WaveScalarConfig(
            clusters=clusters, virtualization=entries,
            matching_entries=entries, l1_kb=l1_kb, l2_mb=l2_mb,
        )
        model = breakdown(config).total
        worst = max(worst, abs(model - paper_mm2) / paper_mm2)
    return worst
