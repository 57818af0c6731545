"""Jumping over a proven deflection fixed point is invisible.

A cell that is too small for its program ends with every live token
bouncing off a full matching-table set once per ``overflow_penalty``
forever.  ``Engine._drain`` proves that state and advances simulated
time over it (``Engine._fixed_point``); the frozen seed engine in
``repro.sim._legacy`` cannot, it interprets every bounce.  So the seed
engine is the oracle: same failure class, message and diagnostics,
same engine-side counters, same per-PE instruction-store hits -- for
every stuck cell the repo knows, at every phase a budget can cut the
cycle in, with every hook attached, and inside a batch.

Everything up to the composition tests is an identity at an engine
that does not jump, and was green there before the jump was written.
"""

from dataclasses import asdict

import pytest

from repro.analysis import RuntimeSanitizer
from repro.core import WaveScalarConfig
from repro.design import viable_designs
from repro.obs import PhaseProfile
from repro.place.snake import place
from repro.sim._legacy.engine import Engine as LegacyEngine
from repro.sim.batched import BatchedEngine
from repro.sim.engine import Engine
from repro.sim.failures import CycleBudgetExhausted, SimulationDeadlock
from repro.sim.trace import Trace
from repro.workloads import Scale
from repro.workloads.registry import all_names, get

#: The starved geometry of ``tests/sim/test_golden_stats.py``: 13 of
#: the 19 workloads end in a fixed point of 1 to 126 cycling tokens
#: (lu and ocean with tokens on over-subscribed instruction stores).
STARVED = WaveScalarConfig(
    clusters=1, virtualization=16, matching_entries=16,
    matching_banks=2, matching_associativity=2, l2_mb=0,
)
#: The two designs of the benchmark study (``viable_designs()[::4]``)
#: whose twolf and equake cells exhaust every budget.
STUDY_DESIGNS = {
    f"l2-{design.config.l2_mb}mb": design.config
    for design in viable_designs()[::4]
    if design.config.virtualization == 16
}
slow = pytest.mark.slow


def _cell(name: str, config: WaveScalarConfig):
    workload = get(name)
    threads = 4 if workload.multithreaded else None
    graph = workload.instantiate(scale=Scale.TINY, threads=threads, seed=0)
    return graph, config, place(graph, config)


def _observed(engine, outcome=None):
    """Everything one run lets a caller see, failure or not
    (``outcome``: the engine already ran, inside a batch)."""
    if outcome is not None:
        stats, error = outcome.stats, outcome.error
    else:
        try:
            stats, error = engine.run(), None
        except SimulationDeadlock as exc:
            stats, error = None, exc
    if error is None:
        verdict = ("ok", asdict(stats))
    else:
        verdict = ("fail", type(error).__name__,
                   str(error).splitlines()[0], error.diagnostics.to_dict())
    stats = engine.stats
    return {
        "verdict": verdict,
        "matching_inserts": stats.matching_inserts,
        "matching_misses": stats.matching_misses,
        "istore_hits": stats.istore_hits,
        "input_rejects": stats.input_rejects,
        "istore_hits_per_pe": [store.hits for store in engine.istores],
    }


def _assert_matches_seed(cell, **budgets):
    new = _observed(Engine(*cell, **budgets))
    old = _observed(LegacyEngine(*cell, **budgets))
    assert new == old, budgets
    return new


# ----------------------------------------------------------------------
# The seed-engine oracle
# ----------------------------------------------------------------------
@pytest.mark.parametrize("budgets", [
    # 10 CycleBudgetExhausted, 3 EventBudgetExhausted, 6 ok.
    pytest.param((300_000, 150_000), id="300k-cycles-150k-events"),
    pytest.param((3_000_000, 3_000_000), id="3M-cycles-3M-events",
                 marks=slow),
])
@pytest.mark.parametrize("name", all_names())
def test_starved_cell_matches_seed_engine(name, budgets):
    max_cycles, max_events = budgets
    _assert_matches_seed(_cell(name, STARVED), max_cycles=max_cycles,
                         max_events=max_events)


@pytest.mark.parametrize("max_cycles", [
    pytest.param(1_000_000, id="1M"),  # the benchmark's first attempt
    pytest.param(4_000_000, id="4M", marks=slow),  # ... and its retry
])
@pytest.mark.parametrize("design", sorted(STUDY_DESIGNS))
@pytest.mark.parametrize("name", ["twolf", "equake"])
def test_study_cell_matches_seed_engine(name, design, max_cycles):
    seen = _assert_matches_seed(_cell(name, STUDY_DESIGNS[design]),
                                max_cycles=max_cycles)
    assert seen["verdict"][1] == "CycleBudgetExhausted"


# lu on STARVED: 126 tokens cycle through 37 buckets of up to 9, 46 of
# them on over-subscribed PEs.  The fixed point holds from cycle 482
# and is proven at 522 with 3026 events processed, so the first budget
# that admits a jump is 562 cycles or 3152 events.
SWEEP_CELL = "lu"
FIRST_JUMP_CYCLES = 562
FIRST_JUMP_EVENTS = 3152
TOKENS_PER_PERIOD = 126
PERIOD = STARVED.overflow_penalty


@pytest.mark.parametrize("stride", [
    pytest.param(4, id="every-4th"),
    pytest.param(1, id="every", marks=slow),
])
def test_every_budget_phase_matches_seed_engine(stride):
    """Every remainder a jump can leave, once: each ``max_cycles``
    over two periods (so the cut falls before, on and after every
    bucket of the period) and each ``max_events`` over two periods'
    tokens (so it falls between buckets and inside every multi-token
    one).  A fixed point's calendar holds single-token entries only,
    so no event budget past the first jump can land inside an
    ``EV_TOKEN_BATCH``; the windows open two events and two cycles
    early to cover the last budgets that admit no jump."""
    cell = _cell(SWEEP_CELL, STARVED)
    classes = set()
    for max_cycles in range(FIRST_JUMP_CYCLES - 2,
                            FIRST_JUMP_CYCLES + 2 * PERIOD + 3, stride):
        seen = _assert_matches_seed(cell, max_cycles=max_cycles)
        classes.add(seen["verdict"][1])
    for max_events in range(FIRST_JUMP_EVENTS - 2,
                            FIRST_JUMP_EVENTS + 2 * TOKENS_PER_PERIOD + 3,
                            stride):
        seen = _assert_matches_seed(cell, max_cycles=10_000_000,
                                    max_events=max_events)
        classes.add(seen["verdict"][1])
    assert classes == {"CycleBudgetExhausted", "EventBudgetExhausted"}


# ----------------------------------------------------------------------
# The jump itself (these fail at an engine that cannot jump)
# ----------------------------------------------------------------------
def test_fixed_point_is_proven_and_named():
    engine = Engine(*_cell(SWEEP_CELL, STARVED), max_cycles=100_000)
    with pytest.raises(CycleBudgetExhausted):
        engine.run()
    proven = engine.fixed_point
    assert proven.period == PERIOD
    assert len(proven.tokens) == TOKENS_PER_PERIOD
    # What the sweep above assumes about where jumping starts.
    assert proven.cycle + 2 * PERIOD == FIRST_JUMP_CYCLES
    # Every token bounces off a full set whose rows all outrank it.
    for pe, inst, thread, wave, _port in proven.tokens:
        table = engine.matching[pe]
        rows = proven.sets[pe, table.set_index(engine._d_slot[inst], wave)]
        assert len(rows) == STARVED.matching_associativity
        for (r_thread, r_wave, r_inst), _ports in rows:
            assert (r_wave, r_thread, r_inst) < (wave, thread, inst)
    assert proven.describe() == (
        "deflection fixed point since cycle 482: 126 tokens, "
        "no budget can finish this cell"
    )


def test_finishing_cell_proves_nothing():
    engine = Engine(*_cell("radix", STARVED))  # deflects, then finishes
    engine.run()
    assert engine.stats.matching_misses > 0
    assert engine.fixed_point is None


# ----------------------------------------------------------------------
# Composition with everything that can be attached to an engine
# ----------------------------------------------------------------------
STUCK_CYCLES = 50_000


class CountingSanitizer(RuntimeSanitizer):
    def __init__(self):
        super().__init__()
        self.table_notes = 0

    def note_table_size(self, pe, size, entries):
        self.table_notes += 1
        super().note_table_size(pe, size, entries)


def _hooked(cls, hook):
    """One stuck run of ``cls`` with ``hook`` attached: what the run
    let a caller see, what the hook recorded, and how many events it
    was shown (``watched``)."""
    engine = cls(*_cell("equake", STARVED), max_cycles=STUCK_CYCLES)
    if hook == "trace":
        engine.trace = Trace(limit=10_000_000)
    else:
        engine.sanitizer = CountingSanitizer()
    seen = _observed(engine)
    if hook == "trace":
        seen["trace"] = list(engine.trace.events)
        seen["watched"] = len(seen["trace"])
    else:
        seen["peak_rows"] = engine.sanitizer.peak_matching_rows
        seen["watched"] = engine.sanitizer.table_notes
    return seen


@pytest.mark.parametrize("hook", ["trace", "sanitizer"])
def test_per_event_observers_see_every_event(hook):
    new = _hooked(Engine, hook)
    old = _hooked(LegacyEngine, hook)
    assert new == old
    # The hook did watch the bounces: 4 tokens a period throughout.
    assert new["watched"] > 4 * (STUCK_CYCLES // PERIOD)


def test_profile_keeps_the_jump_and_ends_balanced():
    cell = _cell("equake", STARVED)
    plain = _observed(Engine(*cell, max_cycles=STUCK_CYCLES))
    engine = Engine(*cell, max_cycles=STUCK_CYCLES)
    engine.profile = PhaseProfile()
    assert _observed(engine) == plain
    assert engine.profile._stack == []
    # Spans were opened for the events interpreted, not for those
    # jumped over.
    events = plain["verdict"][3]["events_processed"]
    assert 0 < engine.profile.calls["input"] < events // 4


@pytest.mark.parametrize("stuck_cycles", [4096, 64])
def test_lockstep_batch_equals_serial_runs(stuck_cycles):
    """One stuck cell between two finishing ones: every cell ends as
    its serial run ends.  With 4096 cycles the stuck cell's budget
    outlasts the two quiet periods the proof needs, and the batch
    proves its fixed point as a serial run does; with 64 the budget
    cuts the cell before it is stuck, and neither run proves one."""
    names = ("radix", "equake", "mcf")
    budgets = (STUCK_CYCLES, stuck_cycles, STUCK_CYCLES)
    cells = [_cell(name, STARVED) for name in names]
    serial = [_observed(Engine(*cell, max_cycles=budget))
              for cell, budget in zip(cells, budgets)]
    assert [s["verdict"][0] for s in serial] == ["ok", "fail", "ok"]

    engines = [Engine(*cell, max_cycles=budget)
               for cell, budget in zip(cells, budgets)]
    outcomes = BatchedEngine(engines).run(strict=True)
    for engine, outcome, expected in zip(engines, outcomes, serial):
        assert _observed(engine, outcome) == expected
    assert [e.fixed_point is not None for e in engines] \
        == [False, stuck_cycles == 4096, False]
