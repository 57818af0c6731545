"""Shared fixtures and program factories for the test suite."""

from __future__ import annotations

import os
import subprocess
import sys
import time

import pytest

from repro.lang import GraphBuilder


def build_counted_sum(n: int = 8, k: int | None = None):
    """sum(i for i in range(n)) as a single-loop dataflow program."""
    b = GraphBuilder(f"counted_sum_{n}")
    t = b.entry(0)
    lp = b.loop(
        [b.const(0, t), b.const(0, t)],
        invariants=[b.const(n, t)],
        k=k,
    )
    i, acc = lp.state
    (limit,) = lp.invariants
    i2 = b.add(i, b.const(1, i))
    lp.next_iteration(b.lt(i2, limit), [i2, b.add(acc, i)])
    exits = lp.end()
    b.output(exits[1])
    return b.finalize(), sum(range(n))


def build_dangling_graph():
    """An ADD with only one producer: buffered work forever."""
    from repro.isa import Opcode

    b = GraphBuilder("halffed")
    t = b.entry(1)
    dangling = b._emit(
        Opcode.ADD, [t], check_inputs=False, allow_underfed=True
    )
    b.output(dangling)
    return b.finalize(verify=False)


def build_array_sum(values, k: int | None = None):
    """sum(values) via loads, exercising wave-ordered memory."""
    b = GraphBuilder(f"array_sum_{len(values)}")
    base = b.data("v", list(values))
    t = b.entry(0)
    lp = b.loop(
        [b.const(0, t), b.const(0, t)],
        invariants=[b.const(len(values), t), b.const(base, t)],
        k=k,
    )
    i, acc = lp.state
    limit, base_n = lp.invariants
    x = b.load(b.add(base_n, i))
    i2 = b.add(i, b.const(1, i))
    lp.next_iteration(b.lt(i2, limit), [i2, b.add(acc, x)])
    exits = lp.end()
    b.output(exits[1])
    return b.finalize(), sum(values)


def build_store_loop(n: int = 6, k: int | None = None):
    """out[i] = i*i for i in range(n); returns (graph, expected_memory)."""
    b = GraphBuilder(f"store_loop_{n}")
    base = b.alloc("out", n)
    t = b.entry(0)
    lp = b.loop(
        [b.const(0, t)],
        invariants=[b.const(n, t), b.const(base, t)],
        k=k,
    )
    (i,) = lp.state
    limit, base_n = lp.invariants
    b.store(b.add(base_n, i), b.mul(i, i))
    i2 = b.add(i, b.const(1, i))
    lp.next_iteration(b.lt(i2, limit), [i2])
    lp.end()
    b.output(b.const(1))
    return b.finalize(), {base + i: i * i for i in range(n) if i * i != 0}, base


def build_threaded_sums(n_threads: int = 4, n: int = 6):
    """Each thread sums range(n) offset by its id; master adds results."""
    b = GraphBuilder(f"threads_{n_threads}x{n}")
    t = b.entry(0)
    partials = []
    for tid in range(1, n_threads + 1):
        (seed,) = b.spawn_thread(tid, [b.const(tid, t)])
        lp = b.loop(
            [b.const(0, seed), b.nop(seed)],
            invariants=[b.const(n, seed)],
        )
        i, acc = lp.state
        (limit,) = lp.invariants
        i2 = b.add(i, b.const(1, i))
        lp.next_iteration(b.lt(i2, limit), [i2, b.add(acc, i)])
        exits = lp.end()
        partials.append(b.end_thread(exits[1]))
    total = partials[0]
    for p in partials[1:]:
        total = b.add(total, p)
    b.output(total)
    expected = sum(tid + sum(range(n)) for tid in range(1, n_threads + 1))
    return b.finalize(), expected


@pytest.fixture
def halffed(monkeypatch):
    """The dangling graph registered as workload ``halffed`` for one
    test: a cell whose every attempt ends in a true deadlock.  Forked
    isolation children inherit the registration."""
    from repro.workloads.base import Suite, Workload
    from repro.workloads.registry import WORKLOADS

    monkeypatch.setitem(WORKLOADS, "halffed", Workload(
        name="halffed", suite=Suite.SPEC,
        build=lambda **_: build_dangling_graph(),
        reference=lambda **_: [],
    ))
    return "halffed"


#: Deaths the ``crasher`` workload allows before it raises instead.
CRASHER_PATIENCE = 20


@pytest.fixture
def crasher(monkeypatch, tmp_path):
    """Workload ``crasher``: building it ends the process that builds
    it (``os._exit``), so under process isolation every attempt of one
    of its cells kills the isolation child.  Deaths are tallied in a
    file; past :data:`CRASHER_PATIENCE` of them the build raises
    instead, so a circuit breaker that never trips fails the test
    rather than hanging it.  Never run it inline."""
    from repro.workloads.base import Suite, Workload
    from repro.workloads.registry import WORKLOADS

    deaths = tmp_path / "crasher-deaths"

    def build(**_):
        with deaths.open("a") as fh:
            fh.write("x")
        if deaths.stat().st_size > CRASHER_PATIENCE:
            raise RuntimeError("crasher was never quarantined")
        os._exit(86)

    monkeypatch.setitem(WORKLOADS, "crasher", Workload(
        name="crasher", suite=Suite.SPEC, build=build,
        reference=lambda **_: [],
    ))
    return "crasher"


@pytest.fixture
def hang_cell(monkeypatch):
    """Install an ``execute_cell`` that sleeps ``sleep_s`` (an hour by
    default) on the cells ``chosen(spec)`` picks (every cell by
    default) and then runs them: a wedged attempt for the watchdog to
    kill or, with a short sleep, a verdict that arrives late.  Workers
    and isolation children forked after the call inherit it."""
    import multiprocessing

    from repro.harness import supervisor as supervisor_mod

    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("needs fork to inherit the monkeypatched worker")
    real = supervisor_mod.execute_cell

    def install(chosen=lambda spec: True, sleep_s: float = 3600) -> None:
        def execute_cell(spec):
            if chosen(spec):
                time.sleep(sleep_s)
            return real(spec)

        monkeypatch.setattr(supervisor_mod, "execute_cell", execute_cell)

    return install


def _off_by_one(value):
    """Every integer output arrives one too large."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value + 1
    return value


def _sign_flip(value):
    """Every nonzero output arrives with its sign flipped."""
    if isinstance(value, (int, float)) and value:
        return -value
    return value


#: ``broken_engine`` breakages: what an OUTPUT instruction records in
#: place of the value it dispatched (``None``: the token is lost and
#: the instruction never fires).
BREAKAGES = {
    "off-by-one": _off_by_one,
    "dropped-output": lambda value: None,
    "sign-flip": _sign_flip,
}


@pytest.fixture
def broken_engine(monkeypatch):
    """``install(name)`` puts an ``Engine`` subclass with the OUTPUT-stage
    bug :data:`BREAKAGES` names in place of the engine the differential
    fuzzer runs (``repro.fuzz.differential.Engine``): every probe
    runs it, the serial run and the no-jump run alike, while the
    reference interpreter stays correct."""
    from repro.fuzz import differential
    from repro.sim.compile import K_OUTPUT
    from repro.sim.engine import Engine

    def install(name: str) -> None:
        corrupt = BREAKAGES[name]

        class BrokenEngine(Engine):
            def _make_dispatch(self, send_memory):
                on_dispatch, flush = super()._make_dispatch(send_memory)
                kind = self.decoded.kind

                def broken(cycle, payload):
                    pe, thread, wave, inst_id, operands = payload
                    if kind[inst_id] == K_OUTPUT:
                        value = corrupt(operands[0])
                        if value is None:
                            return
                        payload = (pe, thread, wave, inst_id,
                                   (value, *operands[1:]))
                    on_dispatch(cycle, payload)

                return broken, flush

        monkeypatch.setattr(differential, "Engine", BrokenEngine)

    return install


#: Run by :func:`kill_mid_cell`: waits for the marker's pid line and
#: SIGKILLs that process.
KILLER = """
import os, signal, sys, time
marker = sys.argv[1]
deadline = time.monotonic() + 60
while time.monotonic() < deadline:
    try:
        with open(marker) as fh:
            text = fh.read()
    except FileNotFoundError:
        text = ""
    if text.endswith("\\n"):
        os.kill(int(text), signal.SIGKILL)
        sys.exit(0)
    time.sleep(0.01)
sys.exit(1)
"""


@pytest.fixture
def kill_mid_cell(monkeypatch, tmp_path):
    """``install(chosen)`` holds the first attempt of the first cell
    ``chosen(spec)`` picks in the isolation child running it, and starts
    a process that SIGKILLs that child.  Returns that process; it exits
    0 once it has sent the signal.  Isolation children forked after the
    call inherit the hold; later attempts of the cell run normally."""
    import multiprocessing

    from repro.harness import supervisor as supervisor_mod

    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("needs fork to inherit the monkeypatched worker")
    marker = tmp_path / "held-cell"
    real = supervisor_mod.execute_cell
    killers = []

    def install(chosen):
        def execute_cell(spec):
            if not chosen(spec):
                return real(spec)
            try:
                fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                return real(spec)  # held and killed once already
            os.write(fd, f"{os.getpid()}\n".encode())
            os.close(fd)
            time.sleep(60)  # until the killer's SIGKILL
            os._exit(0)

        monkeypatch.setattr(supervisor_mod, "execute_cell", execute_cell)
        killers.append(subprocess.Popen(
            [sys.executable, "-c", KILLER, str(marker)]))
        return killers[-1]

    yield install
    for killer in killers:
        if killer.poll() is None:
            killer.kill()
            killer.wait(10)


@pytest.fixture
def counted_sum():
    return build_counted_sum()


@pytest.fixture
def array_sum():
    return build_array_sum([3, 1, 4, 1, 5, 9, 2, 6])


@pytest.fixture(scope="session")
def paper_report():
    """Build the simulated sections of the full paper report once per
    session: ``generate_report`` then reuses each section for the same
    arguments, while its header, the ``repro report`` command around it
    and the ledger section still run on every call."""
    import functools

    from repro.report import fullreport

    with pytest.MonkeyPatch.context() as patch:
        for name in ("_area_section", "_workload_section",
                     "_pareto_section", "_traffic_section"):
            patch.setattr(fullreport, name,
                          functools.cache(getattr(fullreport, name)))
        yield
