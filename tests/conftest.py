"""Shared fixtures and program factories for the test suite."""

from __future__ import annotations

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


@pytest.fixture
def hang_cell(monkeypatch):
    """Install an ``execute_cell`` that hangs on the cells
    ``chosen(spec)`` picks (every cell by default) and runs the rest:
    a wedged attempt for the watchdog to kill.  Workers and isolation
    children forked after the call inherit it."""
    import multiprocessing

    from repro.harness import supervisor as supervisor_mod

    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("needs fork to inherit the monkeypatched worker")
    real = supervisor_mod.execute_cell

    def install(chosen=lambda spec: True) -> None:
        def execute_cell(spec):
            if chosen(spec):
                time.sleep(3600)
            return real(spec)

        monkeypatch.setattr(supervisor_mod, "execute_cell", execute_cell)

    return install


@pytest.fixture
def counted_sum():
    return build_counted_sum()


@pytest.fixture
def array_sum():
    return build_array_sum([3, 1, 4, 1, 5, 9, 2, 6])
