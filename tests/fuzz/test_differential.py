"""The differential harness: clean programs stay clean, oracles are
actually consulted, and the comparison primitives are exact."""

import pytest

from repro.fuzz import (
    build_graph,
    diff_recipe,
    random_recipe,
    run_campaign,
    values_equal,
)
from repro.fuzz.differential import PROBE_CONFIGS, diff_graph

#: Tier-1 smoke budget; CI's nightly job runs a much larger range.
N_SMOKE = 25


def test_smoke_campaign_is_clean():
    """No unexplained disagreement between interpreter, engine (with
    and without its fixed-point jump), bound, and linter on the smoke
    seed range."""
    result = run_campaign(seeds=N_SMOKE, minimize=False)
    assert result.seeds_run == N_SMOKE
    assert result.clean, [
        (c.seed, c.kind, c.detail) for c in result.cases
    ]
    assert result.programs_clean == N_SMOKE


def test_report_carries_coverage_numbers():
    report = diff_recipe(random_recipe(1))
    assert report.clean
    assert report.graph_len > 0
    assert report.dynamic_instructions > 0


def test_both_probe_configs_are_exercised():
    assert len(PROBE_CONFIGS) >= 2
    # The starved probe must actually be starved relative to the
    # primary, or the eviction/retry paths go untested.
    assert PROBE_CONFIGS[1].clusters < PROBE_CONFIGS[0].clusters or \
        PROBE_CONFIGS[1].matching_entries < \
        PROBE_CONFIGS[0].matching_entries


def _assert_caught(report):
    """A broken engine's outputs disagree with the reference
    interpreter.  (Its no-jump run is the same broken engine, so only
    the outputs can tell here; the recorded verdicts of
    ``tests/sim/verdicts.json`` catch it too, see
    ``tests/sim/test_golden_stats.py``.)"""
    kinds = {d.kind for d in report.divergences}
    assert "output" in kinds, report.divergences


def test_defect_is_detected(broken_engine):
    broken_engine("off-by-one")
    _assert_caught(diff_recipe(random_recipe(0)))


def test_dropped_output_defect_is_detected(broken_engine):
    broken_engine("dropped-output")
    _assert_caught(diff_recipe(random_recipe(0)))


def test_sign_flip_defect_is_detected(broken_engine):
    broken_engine("sign-flip")
    _assert_caught(diff_recipe(random_recipe(0)))


def test_unknown_defect_rejected(capsys):
    """There is no switch that corrupts the engine's outputs: breakage
    lives in the tests, and ``repro fuzz --defect`` is an argparse
    error."""
    from repro.cli import main

    with pytest.raises(SystemExit) as exc:
        main(["fuzz", "--seeds", "1", "--defect", "off-by-one"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --defect" in capsys.readouterr().err


def test_bound_check_runs_on_fuzzed_graphs():
    """graph_statics + compute_bound must accept arbitrary built
    graphs, not just registry workloads."""
    from repro.analysis.dataflow import compute_bound, graph_statics

    graph = build_graph(random_recipe(5))
    statics = graph_statics(graph)
    bound = compute_bound(statics, PROBE_CONFIGS[0])
    assert bound.aipc_bound > 0


def test_values_equal_is_exact_but_nan_tolerant():
    nan = float("nan")
    assert values_equal([1, 2.5, nan], [1, 2.5, nan])
    assert not values_equal([1.0000000001], [1.0])
    assert not values_equal([nan], [1.0])
    assert not values_equal([1], [1, 2])
    assert values_equal([], [])


def test_raw_random_graph_generator_still_available():
    """PR 7's instruction-level generator lives in repro.fuzz now."""
    from repro.fuzz import random_graph

    graph = random_graph(0)
    assert len(graph) >= 3
    assert graph.entry_tokens


def test_diff_graph_flags_engine_interpreter_split(broken_engine):
    """A planted engine runs every probe (guards against a harness
    that compares nothing): each probe config reports exactly one
    output divergence."""
    broken_engine("off-by-one")
    report = diff_graph(build_graph(random_recipe(2)))
    for config in PROBE_CONFIGS:
        kinds = sorted(d.kind for d in report.divergences
                       if d.config == config.describe())
        assert kinds == ["output"], report.divergences


def test_skipping_fixed_point_is_a_no_jump_divergence(monkeypatch):
    """An engine whose fixed-point jump skips one event too many
    disagrees with its own no-jump run: lu on the starved probe is
    stuck in a deflection fixed point and jumps over it.  (20k cycles
    keep the no-jump run to some 60k events; as the only config given,
    the starved probe is also the primary one, whose budget trip is a
    divergence of its own.)"""
    from repro.fuzz import differential
    from repro.sim.engine import Engine
    from repro.workloads import Scale
    from repro.workloads.registry import get

    class SkipsOneMore(Engine):
        def _fixed_point(self, *args):
            look, skipped = super()._fixed_point(*args)
            return look, skipped + (skipped > 0)

    monkeypatch.setattr(differential, "MAX_CYCLES", 20_000)
    graph = get("lu").instantiate(scale=Scale.TINY, threads=4, seed=0)

    def stats_divergences():
        report = diff_graph(graph, configs=(PROBE_CONFIGS[1],))
        return [d.detail.split(" -- ")[0] for d in report.divergences
                if d.kind == "stats"]

    assert stats_divergences() == []
    monkeypatch.setattr(differential, "Engine", SkipsOneMore)
    assert stats_divergences() == ["serial/no-jump verdicts differ"]
