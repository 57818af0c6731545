"""Seeded random-graph fuzzing of the token-flow fixed point.

Two hundred generated programs, three properties each:

* the fixed point terminates (well under the MAX_ROUNDS backstop);
* iteration is monotone: intervals only ascend as rounds increase;
* soundness against the golden model -- real firing counts land
  inside the computed intervals, and the analyzer never claims
  deadlock on a program the reference interpreter (and, for a
  subsample, the cycle-level engine) runs to completion.

The generator (``repro.fuzz.random_graph``, promoted from this file
into the fuzz package) builds forward-edge programs whose every input
port has exactly one source (an entry token or one producer),
optionally routed through STEER -- so most instances complete, while
STEER starvation still produces genuinely stuck programs the strict
checks must tolerate without a false *proof*.
"""

import pytest

from repro.analysis.dataflow import (
    MAX_ROUNDS,
    WIDEN_AFTER,
    analyze_tokens,
)
from repro.fuzz import random_graph
from repro.lang.interp import DeadlockError, interpret

from ..conftest import token_flow_at

N_GRAPHS = 200
ENGINE_EVERY = 25  # cycle-engine cross-check cadence (it is slower)


@pytest.mark.parametrize("seed", range(N_GRAPHS))
def test_fuzzed_graph_properties(seed):
    graph = random_graph(seed)
    flow = analyze_tokens(graph)

    # Termination: widening converges far below the backstop.
    assert flow.rounds < MAX_ROUNDS
    assert flow.converged

    # Monotonicity: partial iterates never exceed later ones.
    prev = {}
    for rounds in (1, 2, 4, 8):
        partial = token_flow_at(graph, WIDEN_AFTER, rounds)
        for key, interval in partial.arrivals.items():
            lo0, hi0 = prev.get(key, (0, 0))
            assert interval.lo >= lo0 and interval.hi >= hi0, (
                f"seed {seed}: interval at {key} regressed"
            )
            prev[key] = (interval.lo, interval.hi)
        for key, (lo0, hi0) in prev.items():
            final = flow.arrivals.get(key)
            assert final is not None
            assert final.lo >= lo0 and final.hi >= hi0

    # Soundness against the golden model.
    try:
        result = interpret(graph, max_firings=100_000)
    except DeadlockError:
        return  # stuck program; the analyzer may or may not prove it
    assert not flow.proven_deadlock, (
        f"seed {seed}: claimed deadlock on a program the interpreter "
        "completed"
    )
    for inst in graph.instructions:
        fired = result.fired_by_inst.get(inst.inst_id, 0)
        interval = flow.firings[inst.inst_id]
        assert interval.lo <= fired <= interval.hi, (
            f"seed {seed}: i{inst.inst_id} fired {fired} outside "
            f"{interval}"
        )
    for inst_id in flow.never_fire:
        assert result.fired_by_inst.get(inst_id, 0) == 0


@pytest.mark.parametrize("seed", range(0, N_GRAPHS, ENGINE_EVERY))
def test_fuzzed_graph_engine_agreement(seed):
    """The static proof direction holds against the real engine: a
    program the cycle-level simulator completes is never a proven
    deadlock."""
    from repro.core.config import WaveScalarConfig
    from repro.sim.engine import simulate

    graph = random_graph(seed)
    flow = analyze_tokens(graph)
    try:
        simulate(graph, WaveScalarConfig(), max_cycles=1_000_000)
    except Exception:
        return  # genuinely stuck or budget-bound: nothing to refute
    assert not flow.proven_deadlock, (
        f"seed {seed}: claimed deadlock on a program the engine "
        "completed"
    )
