"""Workload-registry round-trips through the differential machinery.

Every registered workload -- including the tensor family this PR
adds -- must build, lint clean, and match its pure-Python reference
at two scales; the single-threaded ones must additionally survive the
full differential harness (interpreter vs engine, with and without
its fixed-point jump, vs static bound) unchanged.
"""

import pytest

from repro.analysis.lint import lint_graph
from repro.fuzz.differential import diff_graph
from repro.lang.interp import interpret
from repro.workloads import Scale, all_names, get

ALL = all_names()
#: Two scales per the round-trip contract; SMALL is 3x TINY.
SCALES = (Scale.TINY, Scale.SMALL)


@pytest.mark.parametrize("name", ALL)
@pytest.mark.parametrize("scale", SCALES, ids=[s.value for s in SCALES])
def test_registry_build_lint_reference_round_trip(name, scale):
    w = get(name)
    graph = w.instantiate(scale, k=2)
    lint = lint_graph(graph, target=f"{name}@{scale.value}")
    assert lint.clean, [str(d) for d in lint.report.diagnostics]
    result = interpret(graph, max_firings=5_000_000)
    assert result.output_values() == w.expected(scale), (
        f"{name}@{scale.value}: interpreter diverged from reference"
    )


@pytest.mark.parametrize(
    "name", [n for n in ALL if not get(n).multithreaded]
)
def test_registry_graphs_survive_differential_harness(name):
    graph = get(name).instantiate(Scale.TINY, k=2)
    report = diff_graph(graph)
    assert report.clean, [
        (d.kind, d.detail) for d in report.divergences
    ]
