"""Equivalence and cache-behaviour tests for ``repro.sim.compile``.

The contract: a cache-served compiled workload is indistinguishable
from a fresh build -- same graph structure, same flat decode, same
simulation results -- and the cache key covers the full build
signature, so changing the thread count (or scale, k, seed) can never
serve a stale graph.
"""

from dataclasses import asdict

import pytest

from repro.core import WaveScalarConfig, WaveScalarProcessor
from repro.place.snake import place
from repro.sim.compile import (
    CACHE_CAPACITY,
    K_STORE,
    cache_info,
    clear_cache,
    compile_graph,
    compile_workload,
    get_compiled,
)
from repro.sim.engine import Engine
from repro.workloads import Scale
from repro.workloads.registry import all_names, get

CONFIG = WaveScalarConfig(
    clusters=4, virtualization=64, matching_entries=64, l2_mb=1
)


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_cache()
    yield
    clear_cache()


def _threads_for(name: str):
    return 4 if get(name).multithreaded else None


def _decode_view(compiled) -> tuple:
    """The decode as plain comparable data (graphs are distinct
    objects between builds; their compiled content must match)."""
    decoded = compiled.decoded
    return (
        tuple(op.name for op in decoded.opcode),
        decoded.kind,
        decoded.arity,
        decoded.latency,
        decoded.uses_fpu,
        decoded.alpha_equivalent,
        decoded.match_arity,
        decoded.immediate,
        tuple(
            tuple((d.inst, d.port) for d in dests)
            for dests in decoded.dests
        ),
        tuple(
            tuple((d.inst, d.port) for d in dests)
            for dests in decoded.false_dests
        ),
    )


@pytest.mark.parametrize("name", all_names())
def test_fresh_and_cached_builds_are_equivalent(name):
    threads = _threads_for(name)
    fresh = compile_workload(name, scale=Scale.TINY, threads=threads)
    cached = get_compiled(name, scale=Scale.TINY, threads=threads)
    assert fresh.key == cached.key
    assert _decode_view(fresh) == _decode_view(cached)
    assert fresh.expected_outputs() == cached.expected_outputs()


@pytest.mark.parametrize("name", all_names())
def test_cached_simulation_matches_fresh(name):
    threads = _threads_for(name)
    results = []
    for compiled in (
        compile_workload(name, scale=Scale.TINY, threads=threads),
        get_compiled(name, scale=Scale.TINY, threads=threads),
    ):
        graph = compiled.graph
        stats = Engine(
            graph, CONFIG, place(graph, CONFIG),
            compiled=compiled.decoded,
        ).run()
        results.append(asdict(stats))
    assert results[0] == results[1]


def test_engines_share_the_compiled_evaluator_table():
    """The per-instruction evaluators are resolved once per graph:
    engines built on one decode index the same table object, and each
    entry computes what ``evaluate`` computes."""
    from repro.isa.semantics import evaluate

    compiled = get_compiled("mcf", scale=Scale.TINY)
    graph, decoded = compiled.graph, compiled.decoded
    engines = [
        Engine(graph, config, place(graph, config), compiled=decoded)
        for config in (CONFIG, WaveScalarConfig(clusters=1))
    ]
    assert engines[0].decoded.evaluators is decoded.evaluators
    assert engines[1].decoded.evaluators is decoded.evaluators
    assert len(decoded.evaluators) == len(decoded)
    checked = 0
    for inst, evaluator in zip(graph.instructions, decoded.evaluators):
        if inst.opcode.arity == 2 and inst.opcode.name in ("ADD", "SUB",
                                                            "MUL"):
            assert evaluator((6, 3)) == evaluate(
                inst.opcode, (6, 3), inst.immediate
            )
            checked += 1
    assert checked


def test_cache_hit_returns_same_object():
    first = get_compiled("fft", scale=Scale.TINY, threads=4)
    second = get_compiled("fft", scale=Scale.TINY, threads=4)
    assert second is first
    info = cache_info()
    assert info["hits"] == 1 and info["misses"] == 1


def test_thread_count_change_misses_the_cache():
    four = get_compiled("fft", scale=Scale.TINY, threads=4)
    eight = get_compiled("fft", scale=Scale.TINY, threads=8)
    assert four is not eight
    assert four.key != eight.key
    assert four.threads == 4 and eight.threads == 8
    assert cache_info()["misses"] == 2
    # And back: the first build is still cached, not rebuilt.
    assert get_compiled("fft", scale=Scale.TINY, threads=4) is four


def test_scale_k_and_seed_are_part_of_the_key():
    base = get_compiled("mcf", scale=Scale.TINY)
    assert get_compiled("mcf", scale=Scale.SMALL) is not base
    assert get_compiled("mcf", scale=Scale.TINY, k=2) is not base
    assert get_compiled("mcf", scale=Scale.TINY, seed=1) is not base
    assert get_compiled("mcf", scale=Scale.TINY) is base


def test_cache_is_bounded():
    seeds = range(CACHE_CAPACITY + 8)
    for seed in seeds:
        get_compiled("mcf", scale=Scale.TINY, seed=seed)
    assert cache_info()["size"] == CACHE_CAPACITY
    # LRU: the newest entries survive, the oldest were dropped.
    assert get_compiled(
        "mcf", scale=Scale.TINY, seed=seeds[-1]
    ) is not None
    assert cache_info()["hits"] >= 1


def test_engine_rejects_foreign_decode():
    a = get_compiled("mcf", scale=Scale.TINY).graph
    b = get_compiled("gzip", scale=Scale.TINY)
    with pytest.raises(ValueError):
        Engine(a, CONFIG, place(a, CONFIG), compiled=b.decoded)


def test_run_compiled_matches_run_workload():
    proc = WaveScalarProcessor(CONFIG)
    compiled = get_compiled("fft", scale=Scale.TINY, threads=4)
    via_compiled = proc.run_compiled(compiled)
    via_workload = proc.run_workload(
        get("fft"), scale=Scale.TINY, threads=4
    )
    assert asdict(via_compiled.stats) == asdict(via_workload.stats)
    assert via_compiled.threads == via_workload.threads


def test_compiled_graph_rows_mirror_columns():
    compiled = compile_graph(
        get("mcf").instantiate(scale=Scale.TINY, threads=None, seed=0)
    )
    assert len(compiled.rows) == len(compiled)
    for n, row in enumerate(compiled.rows):
        assert row == (
            compiled.kind[n], compiled.latency[n], compiled.uses_fpu[n],
            compiled.alpha_equivalent[n],
        )
        store = compiled.kind[n] == K_STORE
        assert compiled.match_arity[n] == (
            None if store else compiled.arity[n]
        )
