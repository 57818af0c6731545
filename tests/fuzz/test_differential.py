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
    """No unexplained disagreement between interpreter, plain engine,
    batched backend, bound, and linter on the smoke seed range."""
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
    """A broken engine must be caught twice: its outputs disagree with
    the reference interpreter, and its SimStats with the seed
    engine's."""
    kinds = {d.kind for d in report.divergences}
    assert {"output", "stats"} <= kinds, report.divergences
    assert any("seed-engine" in d.detail for d in report.divergences
               if d.kind == "stats")


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
    """A planted engine runs every serial probe and the lockstep batch
    (guards against a harness that compares nothing): each probe
    config reports exactly one output and one seed-engine divergence,
    and the batch, running the same broken engine, agrees with the
    serial runs."""
    broken_engine("off-by-one")
    report = diff_graph(build_graph(random_recipe(2)))
    for config in PROBE_CONFIGS:
        kinds = sorted(d.kind for d in report.divergences
                       if d.config == config.describe())
        assert kinds == ["output", "stats"], report.divergences
    assert not any("lockstep" in d.detail for d in report.divergences)
