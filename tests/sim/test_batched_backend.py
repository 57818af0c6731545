"""Golden identity for the batched backend.

The batched engine (``repro.sim.batched``) runs many cells of the
design space one after another in one call; its contract is that
every cell's :class:`~repro.sim.stats.SimStats` -- and every
*failure*, class and message -- is bit-identical to a serial run.
Both drive the engine's one hot path, so what these tests hold is the
batch loop: per-cell failure isolation, and hooks attached to some
cells of a batch and not others.  (The hot path itself is held to the
recorded no-jump verdicts of ``tests/sim/verdicts.json``, here and in
``tests/sim/test_golden_stats.py``, on both configs below.)
"""

import signal
from dataclasses import asdict

import pytest

from repro.obs.profile import PHASES
from repro.place.snake import place
from repro.sim.batched import BatchedEngine
from repro.sim.compile import get_compiled
from repro.sim.engine import Engine
from repro.sim.failures import SimulationDeadlock
from repro.workloads import Scale
from repro.workloads.registry import all_names, get

from .verdicts import GOLDEN, STARVED, STARVED_BUDGETS, recorded, verdict

#: The golden sweep config, plus a deliberately starved design that
#: drives several workloads into the failure taxonomy (conflict
#: pressure, budget exhaustion) -- the batched backend must reproduce
#: those failures bit-for-bit too.
CONFIGS = (GOLDEN, STARVED)
MAX_CYCLES = STARVED_BUDGETS["200k-cycles"]["max_cycles"]


def _compiled(name: str):
    workload = get(name)
    threads = 4 if workload.multithreaded else None
    return get_compiled(name, scale=Scale.TINY, threads=threads)


def _engine(compiled, config, max_cycles=MAX_CYCLES, **budgets) -> Engine:
    placement = place(compiled.graph, config)
    return Engine(
        compiled.graph, config, placement, max_cycles=max_cycles,
        compiled=compiled.decoded, **budgets,
    )


def _run(engine):
    try:
        return verdict(engine.run(), None)
    except SimulationDeadlock as exc:
        return verdict(None, exc)


@pytest.mark.parametrize("name", all_names())
def test_batched_bit_identical_to_plain_and_seed(name):
    compiled = _compiled(name)
    plain = [_run(_engine(compiled, config)) for config in CONFIGS]
    outcomes = BatchedEngine(
        [_engine(compiled, config) for config in CONFIGS]
    ).run(strict=True)
    assert [verdict(o.stats, o.error) for o in outcomes] == plain
    # The recorded no-jump verdicts: every golden cell finishes well
    # inside the budget, and the starved one is recorded at it.
    assert plain == [
        recorded()[f"golden/{name}"]["verdict"],
        recorded()[f"starved/200k-cycles/{name}"]["verdict"],
    ]


def test_width_one_batch_matches_plain():
    compiled = _compiled("fft")
    plain = _engine(compiled, GOLDEN).run()
    outcome = BatchedEngine([_engine(compiled, GOLDEN)]).run()[0]
    assert outcome.ok
    assert asdict(outcome.stats) == asdict(plain)


# ----------------------------------------------------------------------
# The campaign's backend name
# ----------------------------------------------------------------------
def _backend_error(name) -> str:
    from repro.harness import RunSupervisor

    with pytest.raises(ValueError) as excinfo:
        RunSupervisor(backend=name)
    message = str(excinfo.value)
    for valid in ("plain", "batched"):
        assert valid in message
    return message


def test_unknown_backend_raises_listing_valid_set():
    assert "vectorised" in _backend_error("vectorised")


@pytest.mark.parametrize("bad", [
    None, b"plain", 0, 1.5, ["plain"], ("plain",), object(),
])
def test_non_string_backend_raises_unknown_not_typeerror(bad):
    """Anything but one of the two names is the same ValueError as a
    typo'd string, never a TypeError."""
    _backend_error(bad)


def test_int_valued_enum_backend_rejected():
    import enum

    class Pick(enum.Enum):
        PLAIN = 0

    _backend_error(Pick.PLAIN)


def test_supervisor_rejects_unknown_backend():
    assert "'nope'" in _backend_error("nope")


def _hooked_engines(compiled, budgets):
    """Three cells of one workload: trace + sanitizer on the starved
    design; the golden one once under ``budgets`` with nothing
    attached, once with a profile."""
    from repro.analysis import RuntimeSanitizer
    from repro.obs import PhaseProfile
    from repro.sim.trace import Trace

    traced = _engine(compiled, STARVED)
    traced.trace = Trace(limit=10_000_000)
    traced.sanitizer = RuntimeSanitizer()
    starved = _engine(compiled, GOLDEN, **budgets)
    profiled = _engine(compiled, GOLDEN)
    profiled.profile = PhaseProfile()
    return [traced, starved, profiled]


def _observed(engines, verdicts):
    """Everything the attached hooks and the runs let a caller see."""
    traced, _, profiled = engines
    return {
        "verdicts": verdicts,
        "trace": list(traced.trace.events),
        "sanitizer": [str(d) for d in traced.sanitizer.report().diagnostics],
        "profile_phases": tuple(profiled.profile.ns),
        "alarm": (signal.getsignal(signal.SIGALRM),
                  signal.getitimer(signal.ITIMER_REAL)),
    }


@pytest.mark.parametrize("budgets", [
    {"max_events": 3000},
    {"max_cycles": 1500},
], ids=["clamped-event-budget", "clamped-cycle-budget"])
def test_hooks_compose_with_lockstep_execution(budgets):
    """A batch whose cells carry a trace + sanitizer, a budget too
    small to finish and a profile gives, per cell, what three serial
    runs give: the same SimStats or failure (with diagnostics), the
    same trace events, the same sanitizer verdict, and the profile's
    sampling timer disarmed and its handler gone after each."""
    # radix finishes on the starved design through every slow path:
    # evictions, deflections, bank conflicts, instruction-fetch replays.
    # It needs ~32k events and ~2.9k cycles on the golden one.
    compiled = _compiled("radix")
    alarm = (signal.getsignal(signal.SIGALRM),
             signal.getitimer(signal.ITIMER_REAL))
    serial_engines = _hooked_engines(compiled, budgets)
    serial_verdicts = [_run(engine) for engine in serial_engines]
    serial = _observed(serial_engines, serial_verdicts)

    batch_engines = _hooked_engines(compiled, budgets)
    outcomes = BatchedEngine(batch_engines).run(strict=True)
    batched = _observed(
        batch_engines, [verdict(o.stats, o.error) for o in outcomes]
    )

    assert batched == serial
    # The budget bit, and its failure stayed inside its own cell.
    assert serial_verdicts[1][0] == "fail"
    assert serial_verdicts[2][0] == "ok"
    assert len(serial["trace"]) > 1000
    assert serial["profile_phases"] == PHASES
    assert serial["alarm"] == alarm
