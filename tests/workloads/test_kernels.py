"""Workload-suite tests: every kernel against its reference, on both
the functional interpreter and (spot-checked) the cycle simulator."""

import pytest

from repro.isa.verify import verify_graph
from repro.lang.interp import interpret
from repro.workloads import (
    MEDIA_NAMES,
    SPEC_NAMES,
    SPLASH_NAMES,
    TENSOR_NAMES,
    WORKLOADS,
    Scale,
    Suite,
    by_suite,
    get,
    partition,
)

ALL_NAMES = sorted(WORKLOADS)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_interpreter_matches_reference(name):
    w = get(name)
    graph = w.instantiate(Scale.TINY)
    assert interpret(graph).output_values() == w.expected(Scale.TINY)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_graphs_verify(name):
    w = get(name)
    graph = w.instantiate(Scale.TINY)
    verify_graph(graph)
    assert graph.output_instruction_ids()


@pytest.mark.parametrize("name", ALL_NAMES)
def test_seed_changes_input(name):
    w = get(name)
    a = w.expected(Scale.TINY, seed=0)
    b = w.expected(Scale.TINY, seed=1)
    assert a != b, "different seeds must give different answers"


@pytest.mark.parametrize("name", ALL_NAMES)
def test_deterministic_given_seed(name):
    w = get(name)
    g1 = w.instantiate(Scale.TINY, seed=3)
    g2 = w.instantiate(Scale.TINY, seed=3)
    assert len(g1) == len(g2)
    assert interpret(g1).output_values() == interpret(g2).output_values()


@pytest.mark.parametrize("name", SPLASH_NAMES)
def test_thread_count_preserves_results_when_commutative(name):
    """Thread partitioning only changes FP summation order; integer
    splash kernels must be exactly thread-count invariant."""
    w = get(name)
    if w.uses_fp:
        pytest.skip("FP reduction order differs by thread count")
    assert w.expected(Scale.TINY, threads=1) == \
        w.expected(Scale.TINY, threads=4)


@pytest.mark.parametrize("name", SPLASH_NAMES)
def test_multithreaded_at_various_counts(name):
    w = get(name)
    for threads in (1, 2, 8):
        graph = w.instantiate(Scale.TINY, threads=threads)
        assert interpret(graph).output_values() == w.expected(
            Scale.TINY, threads=threads
        )


@pytest.mark.parametrize("name", SPEC_NAMES + MEDIA_NAMES + TENSOR_NAMES)
def test_single_threaded_reject_thread_arg(name):
    with pytest.raises(ValueError):
        get(name).instantiate(Scale.TINY, threads=2)


def test_suites_partition_registry():
    assert set(SPEC_NAMES) | set(MEDIA_NAMES) | set(SPLASH_NAMES) | \
        set(TENSOR_NAMES) == set(ALL_NAMES)
    assert len(SPEC_NAMES) == 6
    assert len(MEDIA_NAMES) == 3
    assert len(SPLASH_NAMES) == 6
    assert len(TENSOR_NAMES) == 4
    for w in by_suite(Suite.SPLASH):
        assert w.multithreaded
    for w in by_suite(Suite.TENSOR):
        assert w.uses_fp and not w.multithreaded


def test_unknown_workload_raises():
    with pytest.raises(KeyError, match="unknown workload"):
        get("doom")


@pytest.mark.parametrize("name", ALL_NAMES)
def test_scale_grows_program(name):
    w = get(name)
    tiny = w.instantiate(Scale.TINY)
    small = w.instantiate(Scale.SMALL)
    tiny_dyn = interpret(tiny).dynamic_instructions
    small_dyn = interpret(small).dynamic_instructions
    assert small_dyn > 2 * tiny_dyn


@pytest.mark.parametrize("name", ALL_NAMES)
def test_dataflow_overhead_realistic(name):
    """Steers/wave management are a real but bounded fraction of the
    static code (the reason the paper reports AIPC, not IPC)."""
    graph = get(name).instantiate(Scale.TINY)
    frac = 1 - len(graph.alpha_equivalent_ids()) / len(graph)
    # Control-heavy kernels (gzip, mcf) run up to ~0.86; dense compute
    # kernels sit near 0.45.
    assert 0.2 < frac < 0.9, frac


def test_partition_helper():
    assert partition(10, 3) == [(0, 4), (4, 7), (7, 10)]
    assert partition(2, 2) == [(0, 1), (1, 2)]
    with pytest.raises(ValueError):
        partition(5, 0)


@pytest.mark.parametrize("name", ["fft", "water", "radix"])
def test_too_many_threads_rejected(name):
    w = get(name)
    with pytest.raises(ValueError, match="threads exceed"):
        w.instantiate(Scale.TINY, threads=10_000)


@pytest.mark.parametrize("k", [0, -3])
def test_k_below_one_rejected(k):
    # k=0 would build a graph no legal bound describes.
    with pytest.raises(ValueError, match=f"k must be >= 1, got {k}"):
        get("gzip").instantiate(Scale.TINY, k=k)


def test_k_bound_present_on_all_loops():
    from repro.isa import Opcode

    for name in ALL_NAMES:
        graph = get(name).instantiate(Scale.TINY, k=2)
        bounds = {True: set(), False: set()}
        for inst in graph.instructions:
            if inst.opcode is Opcode.WAVE_ADVANCE:
                bounds[".back." in inst.label].add(inst.immediate)
        # Every back edge carries k; entry and exit advances none.
        assert bounds == {True: {2}, False: {None}}, name
