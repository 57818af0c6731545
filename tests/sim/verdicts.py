"""Recorded verdicts: the no-jump oracle of the engine, as data.

``verdicts.json`` holds, for every case below, everything one run lets
a caller see (:func:`observe`): the ``SimStats`` or the failure's
class, message and diagnostics, the matching and instruction-store
counters, and per-PE instruction-store hits.  It was recorded at
commit ``ff91f1b`` by the frozen seed engine that commit still
carried: an event loop of its own, with no deflection fixed-point
jump, over the live matching table, memory, network, store buffer and
statistics.  ``Engine`` with a per-event observer attached cannot jump
either (``Engine._fixed_point`` stands down for one), and rewrites the
file byte for byte::

    PYTHONPATH=src python tests/sim/verdicts.py

So the tests that hold the engine -- jump included -- to this file
hold it to a run that interprets every bounce.  Re-record only after
an intended change to a simulated result, and say so.

Entries are the observation itself, or for the budget sweeps and the
trace (thousands of runs, or of events) the sha256 of its canonical
JSON.  Cases:

* ``golden/NAME``: every registry workload on :data:`GOLDEN`;
* ``starved/BUDGETS/NAME``: every workload on :data:`STARVED` under
  each of :data:`STARVED_BUDGETS`;
* ``c16/NAME``: :data:`C16_NAMES` on sixteen clusters;
* ``study/NAME/DESIGN/BUDGET``: the twolf and equake cells of the
  benchmark study that exhaust every budget;
* ``event-budget/N``: lu cut after ``N`` events (:data:`EVENT_BUDGETS`);
* ``phase-cycles/N``, ``phase-events/N``: lu stuck on ``STARVED``, cut
  at every phase of its fixed point's period;
* ``hooked/trace``, ``hooked/sanitizer``: a stuck equake with a
  per-event observer attached.
"""

import functools
import hashlib
import json
from dataclasses import asdict, astuple
from pathlib import Path

from repro.analysis import RuntimeSanitizer
from repro.core import WaveScalarConfig
from repro.design import viable_designs
from repro.place.snake import place
from repro.sim.engine import Engine
from repro.sim.failures import SimulationDeadlock
from repro.sim.trace import Trace
from repro.workloads import Scale
from repro.workloads.registry import all_names, get

FIXTURE = Path(__file__).with_name("verdicts.json")

GOLDEN = WaveScalarConfig(
    clusters=4, virtualization=64, matching_entries=64, l2_mb=1
)
#: One cluster, 16 instruction slots and 16 matching rows in two banks:
#: at 200k cycles 13 of the 19 workloads end in ``CycleBudgetExhausted``,
#: most in a deflection fixed point of 1 to 126 cycling tokens, and
#: every branch of the matching probe runs.
STARVED = WaveScalarConfig(
    clusters=1, virtualization=16, matching_entries=16,
    matching_banks=2, matching_associativity=2, l2_mb=0,
)
STARVED_BUDGETS = {
    "200k-cycles": {"max_cycles": 200_000},
    # 8 CycleBudgetExhausted, 5 EventBudgetExhausted, 6 ok.
    "300k-cycles-150k-events": {"max_cycles": 300_000,
                                "max_events": 150_000},
    "3M-cycles-3M-events": {"max_cycles": 3_000_000,
                            "max_events": 3_000_000},
}
#: Sixteen clusters (C16xD4xP8): memory traffic over the mesh and
#: coherence among 16 L1s; the multithreaded workloads, one thread per
#: cluster, add grid-level operand delivery.
C16 = WaveScalarConfig(
    clusters=16, domains_per_cluster=4, pes_per_domain=8,
    virtualization=64, matching_entries=64, l2_mb=1,
)
C16_NAMES = (
    "ammp", "art", "equake", "gzip", "mcf", "twolf",  # spec
    "fft", "lu", "ocean", "radix", "raytrace", "water",  # splash, threaded
)
#: The two designs of the benchmark study (``viable_designs()[::4]``)
#: whose twolf and equake cells exhaust every budget.
STUDY_DESIGNS = {
    f"l2-{design.config.l2_mb}mb": design.config
    for design in viable_designs()[::4]
    if design.config.virtualization == 16
}
#: The benchmark's first attempt, and its retry.
STUDY_BUDGETS = {"1M": 1_000_000, "4M": 4_000_000}

#: A cell that finishes, cut by event budgets.  lu on one cluster with
#: 16 instructions per PE and 64 matching rows: 9,244 events, 733
#: instruction-store misses (so IFETCH replays) and 2,023 bank
#: rejects, with multi-token ``EV_TOKEN_BATCH`` entries throughout --
#: unlike a deflection fixed point, whose calendar holds single tokens
#: only.  A budget can fall inside a batch, on a bucket's first entry,
#: or on the fetch event in front of a replay.
BUDGET_CONFIG = WaveScalarConfig(
    clusters=1, virtualization=16, matching_entries=64, l2_mb=0
)
BUDGET_CELL_EVENTS = 9_244
#: Every 7th and every 97th budget: the slow and the fast stride.
EVENT_BUDGET_STRIDES = (7, 97)
EVENT_BUDGETS = sorted({
    max_events for stride in EVENT_BUDGET_STRIDES
    for max_events in range(1, BUDGET_CELL_EVENTS, stride)
})

# lu on STARVED: 126 tokens cycle through 37 buckets of up to 9, 46 of
# them on over-subscribed PEs.  The fixed point holds from cycle 482
# and is proven at 522 with 3026 events processed, so the first budget
# that admits a jump is 562 cycles or 3152 events.  The phase windows
# span two periods (two periods' tokens), opening two early to cover
# the last budgets that admit no jump.
SWEEP_CELL = "lu"
FIRST_JUMP_CYCLES = 562
FIRST_JUMP_EVENTS = 3152
TOKENS_PER_PERIOD = 126
PERIOD = STARVED.overflow_penalty
PHASE_CYCLES = range(FIRST_JUMP_CYCLES - 2,
                     FIRST_JUMP_CYCLES + 2 * PERIOD + 3)
PHASE_EVENTS = range(FIRST_JUMP_EVENTS - 2,
                     FIRST_JUMP_EVENTS + 2 * TOKENS_PER_PERIOD + 3)

#: The hooked runs: equake stuck on STARVED.
STUCK_CYCLES = 50_000


def _cases() -> dict:
    """Case id -> ``(workload, config, threads, budgets)``."""
    cases = {}
    for name in all_names():
        cases[f"golden/{name}"] = (name, GOLDEN, 4, {})
    for label, budgets in STARVED_BUDGETS.items():
        for name in all_names():
            cases[f"starved/{label}/{name}"] = (name, STARVED, 4, budgets)
    for name in C16_NAMES:
        cases[f"c16/{name}"] = (name, C16, 16, {})
    for name in ("twolf", "equake"):
        for design, config in sorted(STUDY_DESIGNS.items()):
            for label, max_cycles in STUDY_BUDGETS.items():
                cases[f"study/{name}/{design}/{label}"] = (
                    name, config, 4, {"max_cycles": max_cycles})
    for max_events in EVENT_BUDGETS:
        cases[f"event-budget/{max_events}"] = (
            SWEEP_CELL, BUDGET_CONFIG, 4, {"max_events": max_events})
    for max_cycles in PHASE_CYCLES:
        cases[f"phase-cycles/{max_cycles}"] = (
            SWEEP_CELL, STARVED, 4, {"max_cycles": max_cycles})
    for max_events in PHASE_EVENTS:
        cases[f"phase-events/{max_events}"] = (
            SWEEP_CELL, STARVED, 4,
            {"max_cycles": 10_000_000, "max_events": max_events})
    return cases


CASES = _cases()
#: Case ids whose entry is a digest.
DIGESTED = ("event-budget/", "phase-")


@functools.lru_cache(maxsize=None)
def cell(name: str, config: WaveScalarConfig, threads: int = 4):
    """``(graph, config, placement)`` of one registry workload at tiny
    scale (``threads`` if it is multithreaded)."""
    workload = get(name)
    graph = workload.instantiate(
        scale=Scale.TINY, threads=threads if workload.multithreaded else None,
        seed=0,
    )
    return graph, config, place(graph, config)


def digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()


def verdict(stats, error) -> list:
    """``["ok", stats]`` or ``["fail", class, message, diagnostics]``:
    how one run ended, as the fixture holds it -- through JSON, so
    tuples become lists and ``SimStats.outputs``' int keys strings."""
    if error is None:
        ending = ["ok", asdict(stats)]
    else:
        ending = ["fail", type(error).__name__, str(error),
                  error.diagnostics.to_dict()]
    return json.loads(json.dumps(ending))


def observe(engine, outcome=None) -> dict:
    """Everything one run lets a caller see, failure or not
    (``outcome``: the engine already ran, inside a batch)."""
    if outcome is not None:
        stats, error = outcome.stats, outcome.error
    else:
        try:
            stats, error = engine.run(), None
        except SimulationDeadlock as exc:
            stats, error = None, exc
    seen = engine.stats
    return {
        "verdict": verdict(stats, error),
        "aipc": seen.aipc,
        "ipc": seen.ipc,
        "matching_inserts": seen.matching_inserts,
        "matching_misses": seen.matching_misses,
        "matching_evictions": seen.matching_evictions,
        "istore_hits": seen.istore_hits,
        "input_rejects": seen.input_rejects,
        "istore_hits_per_pe": [store.hits for store in engine.istores],
    }


class CountingSanitizer(RuntimeSanitizer):
    """A sanitizer that counts the table-size notes it is shown."""

    def __init__(self):
        super().__init__()
        self.table_notes = 0

    def note_table_size(self, pe, size, entries):
        self.table_notes += 1
        super().note_table_size(pe, size, entries)


def hooked(hook: str) -> dict:
    """One stuck run with ``hook`` (``"trace"`` or ``"sanitizer"``)
    attached, which stands the jump down: what the run let a caller
    see, what the hook recorded (the trace as its digest), and how
    many events it was shown (``watched``)."""
    engine = Engine(*cell("equake", STARVED), max_cycles=STUCK_CYCLES)
    if hook == "trace":
        engine.trace = Trace(limit=10_000_000)
    else:
        engine.sanitizer = CountingSanitizer()
    seen = observe(engine)
    if hook == "trace":
        events = [astuple(event) for event in engine.trace.events]
        seen["trace"] = digest(events)
        seen["watched"] = len(events)
    else:
        seen["peak_rows"] = engine.sanitizer.peak_matching_rows
        seen["watched"] = engine.sanitizer.table_notes
    return seen


@functools.lru_cache(maxsize=None)
def recorded() -> dict:
    return json.loads(FIXTURE.read_text())


def check(case: str) -> dict:
    """Run ``case`` on the engine (fixed-point jump included) and hold
    it to its recorded entry; returns what the run let a caller see."""
    name, config, threads, budgets = CASES[case]
    seen = observe(Engine(*cell(name, config, threads), **budgets))
    want = recorded()[case]
    assert (digest(seen) if isinstance(want, str) else seen) == want, case
    return seen


def record() -> dict:
    """Every case run on an engine that interprets every bounce: a
    per-event observer (a trace that keeps nothing) stands the
    fixed-point jump down."""
    entries = {}
    for case, (name, config, threads, budgets) in CASES.items():
        engine = Engine(*cell(name, config, threads), **budgets)
        engine.trace = Trace(limit=0)
        seen = observe(engine)
        entries[case] = digest(seen) if case.startswith(DIGESTED) else seen
    for hook in ("trace", "sanitizer"):
        entries[f"hooked/{hook}"] = hooked(hook)
    return entries


def write(entries: dict) -> None:
    """One line per case, in case order."""
    FIXTURE.write_text("{\n" + ",\n".join(
        f"{json.dumps(case)}: {json.dumps(entry, sort_keys=True)}"
        for case, entry in entries.items()
    ) + "\n}\n")


if __name__ == "__main__":
    write(record())
