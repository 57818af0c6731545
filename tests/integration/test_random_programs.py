"""Differential testing on randomly generated dataflow programs.

Hypothesis builds arbitrary straight-line/conditional programs through
the GraphBuilder (arithmetic over live values, loads and stores to a
small heap, nested-free if_else blocks), then checks that the
cycle-level simulator's outputs and final memory match the functional
interpreter's exactly.  This explores graph shapes no hand-written
kernel covers -- it is how the fork-after-join serialisation bug was
characterised.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import BASELINE, WaveScalarConfig
from repro.lang import GraphBuilder
from repro.lang.interp import interpret
from repro.sim import simulate

#: Operation menu for the generator: (name, arity).
BINOPS = ("add", "sub", "mul", "and_", "or_", "xor", "min_", "max_")
HEAP_CELLS = 4


@st.composite
def programs(draw):
    """A random program as a list of abstract actions."""
    n_actions = draw(st.integers(3, 18))
    actions = []
    for _ in range(n_actions):
        kind = draw(st.sampled_from(
            ["binop", "binop", "binop", "const", "load", "store",
             "ifelse"]
        ))
        if kind == "binop":
            actions.append(("binop", draw(st.sampled_from(BINOPS)),
                            draw(st.integers(0, 10**6)),
                            draw(st.integers(0, 10**6))))
        elif kind == "const":
            actions.append(("const", draw(st.integers(-100, 100))))
        elif kind == "load":
            actions.append(("load", draw(st.integers(0, HEAP_CELLS - 1))))
        elif kind == "store":
            actions.append(("store", draw(st.integers(0, HEAP_CELLS - 1)),
                            draw(st.integers(0, 10**6))))
        else:
            actions.append((
                "ifelse",
                draw(st.integers(0, 10**6)),   # predicate picker
                draw(st.integers(0, 10**6)),   # value picker
                draw(st.integers(-50, 50)),    # then-arm addend
                draw(st.integers(-50, 50)),    # else-arm addend
                draw(st.booleans()),           # store on the then arm?
                draw(st.integers(0, HEAP_CELLS - 1)),
            ))
    entry_value = draw(st.integers(-20, 20))
    heap_init = draw(st.lists(st.integers(-50, 50), min_size=HEAP_CELLS,
                              max_size=HEAP_CELLS))
    return entry_value, heap_init, actions


def realize(entry_value, heap_init, actions):
    """Build the program; returns the finalized graph."""
    b = GraphBuilder("random")
    heap = b.data("heap", heap_init)
    t = b.entry(entry_value)
    live = [t, b.const(3, t)]

    def pick(index):
        return live[index % len(live)]

    for action in actions:
        if action[0] == "binop":
            _, op, i, j = action
            live.append(getattr(b, op)(pick(i), pick(j)))
        elif action[0] == "const":
            live.append(b.const(action[1], live[-1]))
        elif action[0] == "load":
            live.append(b.load(b.const(heap + action[1], live[-1])))
        elif action[0] == "store":
            _, cell, i = action
            b.store(b.const(heap + cell, pick(i)), pick(i))
        else:
            _, pi, vi, t_add, f_add, t_store, cell = action
            pred = b.ge(pick(pi), b.const(0, pick(pi)))
            br = b.if_else(pred, [pick(vi)])
            (tv,) = br.then_values()
            if t_store:
                b.store(b.const(heap + cell, tv), tv)
            br.then_result([b.add(tv, b.const(t_add, tv))])
            (fv,) = br.else_values()
            br.else_result([b.add(fv, b.const(f_add, fv))])
            (merged,) = br.end()
            live.append(merged)

    # Observe the last few live values plus the whole heap.
    for node in live[-3:]:
        b.output(node)
    final_trigger = live[-1]
    for cell in range(HEAP_CELLS):
        b.output(b.load(b.const(heap + cell, final_trigger)))
    return b.finalize()


@settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(program=programs())
def test_simulator_matches_interpreter(program):
    graph = realize(*program)
    reference = interpret(graph)
    stats = simulate(graph, BASELINE, max_cycles=2_000_000)
    assert stats.output_values() == reference.output_values()


@settings(
    max_examples=15,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(program=programs())
def test_matches_on_starved_config(program):
    graph = realize(*program)
    reference = interpret(graph)
    starved = WaveScalarConfig(
        clusters=1, domains_per_cluster=1, pes_per_domain=2,
        virtualization=16, matching_entries=16, matching_hash_k=1,
    )
    stats = simulate(graph, starved, max_cycles=3_000_000)
    assert stats.output_values() == reference.output_values()
