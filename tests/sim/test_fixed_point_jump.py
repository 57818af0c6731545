"""Jumping over a proven deflection fixed point is invisible.

A cell that is too small for its program ends with every live token
bouncing off a full matching-table set once per ``overflow_penalty``
forever.  ``Engine._drain`` proves that state and advances simulated
time over it (``Engine._fixed_point``).  The recorded verdicts of
``tests/sim/verdicts.json`` come from runs that cannot jump, that
interpret every bounce (``tests/sim/verdicts.py``), so they are the
oracle: same failure class, message and diagnostics, same engine-side
counters, same per-PE instruction-store hits -- for every stuck cell
the repo knows, at every phase a budget can cut the cycle in, with
every hook attached, and inside a batch.

Everything up to the composition tests is an identity at an engine
that does not jump, and was green there before the jump was written.
"""

import signal

import pytest

from repro.obs import PhaseProfile
from repro.sim.batched import BatchedEngine
from repro.sim.engine import Engine
from repro.sim.failures import CycleBudgetExhausted
from repro.workloads.registry import all_names

from .verdicts import (
    FIRST_JUMP_CYCLES,
    PERIOD,
    PHASE_CYCLES,
    PHASE_EVENTS,
    STARVED,
    STUCK_CYCLES,
    STUDY_DESIGNS,
    SWEEP_CELL,
    TOKENS_PER_PERIOD,
    cell,
    check,
    hooked,
    observe,
    recorded,
)

slow = pytest.mark.slow


# ----------------------------------------------------------------------
# The recorded no-jump oracle
# ----------------------------------------------------------------------
@pytest.mark.parametrize("budgets", [
    pytest.param("300k-cycles-150k-events"),
    pytest.param("3M-cycles-3M-events", marks=slow),
])
@pytest.mark.parametrize("name", all_names())
def test_starved_cell_matches_seed_engine(name, budgets):
    check(f"starved/{budgets}/{name}")


@pytest.mark.parametrize("max_cycles", [
    pytest.param("1M"),  # the benchmark's first attempt
    pytest.param("4M", marks=slow),  # ... and its retry
])
@pytest.mark.parametrize("design", sorted(STUDY_DESIGNS))
@pytest.mark.parametrize("name", ["twolf", "equake"])
def test_study_cell_matches_seed_engine(name, design, max_cycles):
    seen = check(f"study/{name}/{design}/{max_cycles}")
    assert seen["verdict"][1] == "CycleBudgetExhausted"


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
    classes = set()
    for max_cycles in PHASE_CYCLES[::stride]:
        classes.add(check(f"phase-cycles/{max_cycles}")["verdict"][1])
    for max_events in PHASE_EVENTS[::stride]:
        classes.add(check(f"phase-events/{max_events}")["verdict"][1])
    assert classes == {"CycleBudgetExhausted", "EventBudgetExhausted"}


# ----------------------------------------------------------------------
# The jump itself (these fail at an engine that cannot jump)
# ----------------------------------------------------------------------
def test_fixed_point_is_proven_and_named():
    engine = Engine(*cell(SWEEP_CELL, STARVED), max_cycles=100_000)
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
    engine = Engine(*cell("radix", STARVED))  # deflects, then finishes
    engine.run()
    assert engine.stats.matching_misses > 0
    assert engine.fixed_point is None


# ----------------------------------------------------------------------
# Composition with everything that can be attached to an engine
# ----------------------------------------------------------------------
@pytest.mark.parametrize("hook", ["trace", "sanitizer"])
def test_per_event_observers_see_every_event(hook):
    new = hooked(hook)
    assert new == recorded()[f"hooked/{hook}"]
    # The hook did watch the bounces: 4 tokens a period throughout.
    assert new["watched"] > 4 * (STUCK_CYCLES // PERIOD)


def test_profile_keeps_the_jump_and_ends_balanced():
    stuck = cell("equake", STARVED)
    plain = observe(Engine(*stuck, max_cycles=STUCK_CYCLES))
    engine = Engine(*stuck, max_cycles=STUCK_CYCLES)
    engine.profile = PhaseProfile()
    handler = signal.getsignal(signal.SIGALRM)
    assert observe(engine) == plain
    assert engine.fixed_point is not None
    # The sampling timer is disarmed and the handler put back.
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is handler


@pytest.mark.parametrize("stuck_cycles", [4096, 64])
def test_lockstep_batch_equals_serial_runs(stuck_cycles):
    """One stuck cell between two finishing ones: every cell ends as
    its serial run ends.  With 4096 cycles the stuck cell's budget
    outlasts the two quiet periods the proof needs, and the batch
    proves its fixed point as a serial run does; with 64 the budget
    cuts the cell before it is stuck, and neither run proves one."""
    names = ("radix", "equake", "mcf")
    budgets = (STUCK_CYCLES, stuck_cycles, STUCK_CYCLES)
    cells = [cell(name, STARVED) for name in names]
    serial = [observe(Engine(*one, max_cycles=budget))
              for one, budget in zip(cells, budgets)]
    assert [s["verdict"][0] for s in serial] == ["ok", "fail", "ok"]

    engines = [Engine(*one, max_cycles=budget)
               for one, budget in zip(cells, budgets)]
    outcomes = BatchedEngine(engines).run(strict=True)
    for engine, outcome, expected in zip(engines, outcomes, serial):
        assert observe(engine, outcome) == expected
    assert [e.fixed_point is not None for e in engines] \
        == [False, stuck_cycles == 4096, False]
