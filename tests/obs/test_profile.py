"""Tests for the sampled phase profile."""

import inspect
import signal
import threading
import time

import pytest

from repro.core.config import BASELINE, WaveScalarConfig
from repro.core.processor import WaveScalarProcessor
from repro.obs.profile import PHASES, PhaseProfile, _engine_lines
from repro.place.snake import place
from repro.sim import engine as engine_module
from repro.sim.compile import compile_workload
from repro.sim.engine import Engine
from repro.sim.failures import EventBudgetExhausted
from repro.workloads.base import Scale

from ..conftest import build_array_sum

#: The cell config of the ``cells_long`` benchmark workload.
CELL_CONFIG = WaveScalarConfig(clusters=4, virtualization=128,
                               matching_entries=128, l2_mb=1)


def phase_of_line(number: int) -> str:
    """The phase a sample on line ``number`` of ``sim/engine.py`` is
    charged to."""
    return _engine_lines()[1][number]


def _engine_line(text: str, after: str = "") -> int:
    """The number of the first line of ``sim/engine.py`` holding
    ``text`` at or after the first line holding ``after``."""
    lines = inspect.getsource(engine_module).splitlines()
    start = next(i for i, line in enumerate(lines) if after in line)
    return next(i for i, line in enumerate(lines[start:], start + 1)
                if text in line)


def test_phase_of_line_reads_the_engine_markers():
    evaluate = "value = d_eval[inst_id](operands)"
    assert phase_of_line(_engine_line(evaluate)) == "execute"
    assert phase_of_line(_engine_line(evaluate) + 2) == "dispatch"
    assert phase_of_line(_engine_line("used[granted] = 1")) == "dispatch"
    assert phase_of_line(_engine_line("for payload in tokens:")) == "input"
    assert phase_of_line(_engine_line("claims[claim] = cycle")) == "match"
    assert phase_of_line(_engine_line("fired = arity <= 1")) == "match"
    assert phase_of_line(_engine_line(
        "at = cycle if local and spec_fire", after="if not fired:"
    )) == "input"
    assert phase_of_line(_engine_line(
        "for dst_pe, dst_inst, port, level in route:")) == "deliver"
    assert phase_of_line(_engine_line(
        "home = thread_home.get(thread, 0)")) == "memory"
    assert phase_of_line(_engine_line("sb.submit_address(")) == "memory"
    assert phase_of_line(_engine_line(
        "bucket = buckets.pop(cycle)")) == "other"
    assert phase_of_line(_engine_line("istores[pe].fill(inst_id)")) \
        == "other"
    assert phase_of_line(_engine_line(
        "quiet = processed - deflections")) == "other"
    assert len(_engine_lines()[1]) == len(
        inspect.getsource(engine_module).splitlines()) + 1


def test_every_engine_line_has_a_phase():
    """Every marker names one of the seven phases (an unknown name
    would be no marker at all), and each phase names at least one
    line."""
    lines = inspect.getsource(engine_module).splitlines()
    for number, line in enumerate(lines, 1):
        if line.lstrip().startswith("# phase:"):
            name = line.split("# phase:")[1].strip()
            assert name in PHASES, (number, line)
            assert phase_of_line(number) == name
    phases = {phase_of_line(n) for n in range(1, len(lines) + 1)}
    assert phases == set(PHASES)


def test_no_profiling_code_in_the_loop():
    """The loop and its stage closures never read the profile: no
    name, local or cell of theirs is ``profile`` or ``prof``."""
    def nested(function, name):
        return next(c for c in function.__code__.co_consts
                    if inspect.iscode(c) and c.co_name == name)

    codes = [
        Engine._drain.__code__,
        nested(Engine._make_dispatch, "on_dispatch"),
        nested(Engine._make_deliver, "deliver"),
        nested(Engine._make_memory, "send_memory"),
        nested(Engine._make_memory, "memory_complete"),
    ]
    for code in codes:
        names = set(code.co_names + code.co_varnames + code.co_freevars
                    + code.co_cellvars)
        assert not names & {"profile", "prof"}, code.co_name


def test_fractions_sum_to_one():
    prof = PhaseProfile()
    prof.ns.update(input=3, dispatch=5, execute=2)
    assert sum(prof.fractions().values()) == pytest.approx(1.0)


def test_empty_profile_renders_and_serialises():
    prof = PhaseProfile()
    assert prof.total_ns == 0
    assert all(v == 0.0 for v in prof.fractions().values())
    assert prof.to_dict() == {
        "ns": {phase: 0 for phase in PHASES}, "samples": 0, "total_ns": 0,
    }
    assert "phase" in prof.render()


def test_engine_attributes_hot_loop_phases():
    """gzip at medium scale on the benchmark's cell config: the samples
    account for the runs' process CPU time, and each stage the cell
    exercises got some of it.  One profile over three runs: a phase
    with a ~5% share of one run's ~80 samples could read 0 by chance."""
    compiled = compile_workload("gzip", scale=Scale.MEDIUM)
    processor = WaveScalarProcessor(CELL_CONFIG)
    plain = processor.run_compiled(compiled).stats
    prof = PhaseProfile()
    started = time.process_time_ns()
    for _ in range(3):
        assert processor.run(
            compiled.graph, threads=compiled.threads,
            compiled=compiled.decoded, profile=prof,
        ).stats == plain
    cpu_ns = time.process_time_ns() - started
    assert tuple(prof.ns) == PHASES
    assert prof.samples > 60
    assert prof.total_ns == pytest.approx(cpu_ns, rel=0.05)
    for phase in ("input", "match", "dispatch", "deliver", "memory"):
        assert prof.ns[phase] > 0, phase
    text = prof.render()
    assert "dispatch" in text and "samples" in text


def _installed_hooks(engine) -> list:
    """Anything shadowing a component method on the engine's parts:
    the hot path serves hooks from tests on locals, so there must
    never be any."""
    return [
        (type(part).__name__, name)
        for part in (engine.network, *engine.matching)
        for name, value in vars(part).items()
        if callable(value)
    ]


def test_disabled_profiling_leaves_no_shadows(monkeypatch):
    """With no profile attached the run makes no PhaseProfile call at
    all, and nothing is installed on the engine's tables or network."""
    calls = []
    monkeypatch.setattr(PhaseProfile, "start",
                        lambda self: calls.append("start"))
    monkeypatch.setattr(PhaseProfile, "stop",
                        lambda self: calls.append("stop"))
    before = signal.getsignal(signal.SIGALRM)
    graph, _ = build_array_sum([1, 2, 3], k=2)
    engine = Engine(graph, BASELINE, place(graph, BASELINE))
    engine.run()
    assert calls == []
    assert engine.profile is None
    assert signal.getsignal(signal.SIGALRM) is before
    assert _installed_hooks(engine) == []


@pytest.fixture
def prior_alarm():
    """A Python handler and a long ITIMER_REAL, as a caller might have
    installed them; both put back afterwards."""
    def handler(signum, frame):
        raise AssertionError("the prior alarm fired")

    saved = signal.signal(signal.SIGALRM, handler)
    signal.setitimer(signal.ITIMER_REAL, 100.0, 50.0)
    yield handler
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, saved)


def _assert_restored(handler) -> None:
    assert signal.getsignal(signal.SIGALRM) is handler
    delay, interval = signal.getitimer(signal.ITIMER_REAL)
    assert 90.0 < delay <= 100.0
    assert interval == 50.0


def test_profile_hooks_uninstalled_after_profiled_run(prior_alarm):
    """A profiled run leaves nothing installed: the caller's handler
    and timer are back, the timer less the time the run took."""
    graph, _ = build_array_sum([1, 2, 3], k=2)
    engine = Engine(graph, BASELINE, place(graph, BASELINE))
    engine.profile = PhaseProfile()
    engine.run()
    _assert_restored(prior_alarm)
    assert _installed_hooks(engine) == []


def test_budget_raise_restores_handler_and_timer(prior_alarm):
    graph, _ = build_array_sum([1, 2, 3, 4], k=2)
    plain = Engine(graph, BASELINE, place(graph, BASELINE), max_events=40)
    with pytest.raises(EventBudgetExhausted) as unprofiled:
        plain.run()
    engine = Engine(graph, BASELINE, place(graph, BASELINE), max_events=40)
    engine.profile = PhaseProfile()
    with pytest.raises(EventBudgetExhausted) as profiled:
        engine.run()
    assert str(profiled.value) == str(unprofiled.value)
    assert profiled.value.diagnostics == unprofiled.value.diagnostics
    _assert_restored(prior_alarm)


def test_off_the_main_thread_raises_before_anything_changes():
    graph, _ = build_array_sum([1, 2, 3], k=2)
    engine = Engine(graph, BASELINE, place(graph, BASELINE))
    engine.profile = PhaseProfile()
    before = signal.getsignal(signal.SIGALRM)
    raised = []

    def run():
        try:
            engine.run()
        except ValueError as exc:
            raised.append(exc)

    worker = threading.Thread(target=run)
    worker.start()
    worker.join()
    assert len(raised) == 1 and "main thread" in str(raised[0])
    assert engine._buckets == {} and engine._cycle_heap == []
    assert engine.stats.events_processed == 0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_profiling_does_not_change_results():
    graph, _ = build_array_sum([1, 2, 3, 4], k=2)
    plain = Engine(graph, BASELINE, place(graph, BASELINE)).run()
    engine = Engine(graph, BASELINE, place(graph, BASELINE))
    engine.profile = PhaseProfile()
    profiled = engine.run()
    assert profiled == plain
    assert profiled.output_values() == plain.output_values()
