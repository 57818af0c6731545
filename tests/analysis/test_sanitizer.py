"""Runtime sanitizer: clean runs audit clean, leaking runs are caught."""

import pytest

from repro.analysis import RuntimeSanitizer
from repro.core.config import WaveScalarConfig
from repro.core.processor import WaveScalarProcessor
from repro.workloads.base import Scale
from repro.workloads.registry import all_names, get

from ..conftest import build_dangling_graph


@pytest.fixture(scope="module")
def proc():
    return WaveScalarProcessor(WaveScalarConfig())


@pytest.mark.parametrize("name", all_names())
def test_suite_is_invariant_clean(proc, name):
    sanitizer = RuntimeSanitizer()
    proc.run_workload(get(name), scale=Scale.TINY, sanitizer=sanitizer)
    assert sanitizer.ok, sanitizer.report().render()
    assert sanitizer.violations == []


def test_clean_run_reports_token_ledger(proc):
    sanitizer = RuntimeSanitizer()
    proc.run_workload(get("gzip"), scale=Scale.TINY,
                      sanitizer=sanitizer)
    infos = sanitizer.report().infos
    assert any(d.rule == "S005" and "token ledger" in d.message
               for d in infos)


def test_leaking_run_is_rejected(proc):
    sanitizer = RuntimeSanitizer()
    proc.run(build_dangling_graph(), sanitizer=sanitizer, strict=False)
    assert not sanitizer.ok
    # The unfed port strands its one operand in a matching table
    # (S002); the token ledger still balances (S005 stays info).
    assert {d.rule for d in sanitizer.violations} == {"S002"}


def test_sanitizer_is_reusable_across_checks(proc):
    # Two independent sanitizers on the same processor do not share
    # state: the second starts balanced.
    first = RuntimeSanitizer()
    proc.run(build_dangling_graph(), sanitizer=first, strict=False)
    assert not first.ok
    second = RuntimeSanitizer()
    proc.run_workload(get("gzip"), scale=Scale.TINY, sanitizer=second)
    assert second.ok
