"""The soundness gate: static AIPC bounds dominate measured AIPC.

Every suite workload runs on a sampled config grid and the measured
AIPC must never exceed :func:`bound_for_cell`'s upper bound -- the
property the sweep's ``--prune`` mode (and its bit-identical-frontier
guarantee) rests on.  The grid deliberately spans the geometry axes
the placed roofs model: pod-enabled baseline, multi-cluster mesh, and
a virtualization-starved design.

The grid is a representative sample kept fast for tier 1; the
differential fuzzer (``repro.fuzz``) holds every random program to
its bound, and the frontier ``bench/expected.json`` pins for the
pruned study would move if a bound that decided a skip were unsound.
"""

import pytest

from repro.analysis import bound_for_cell
from repro.analysis.dataflow import clear_statics_cache
from repro.core.config import WaveScalarConfig
from repro.core.processor import WaveScalarProcessor
from repro.harness.spec import CellSpec
from repro.workloads.base import Scale
from repro.workloads.registry import SPEC_NAMES, get

CONFIGS = [
    WaveScalarConfig(),  # pod baseline, single cluster
    WaveScalarConfig(clusters=4, virtualization=32,
                     matching_entries=32, l2_mb=2),
]

SPEC = SPEC_NAMES


@pytest.mark.parametrize("config", CONFIGS,
                         ids=lambda c: c.describe())
@pytest.mark.parametrize("name", SPEC)
def test_bound_dominates_measured_aipc(name, config):
    spec = CellSpec(config=config, workload=name, scale="tiny")
    bound = bound_for_cell(spec)
    assert bound.aipc_bound > 0
    assert not bound.proven_deadlock

    result = WaveScalarProcessor(config).run_workload(
        get(name), scale=Scale.TINY
    )
    assert result.aipc <= bound.aipc_bound, (
        f"{name} on {config.describe()}: measured {result.aipc:.4f} "
        f"exceeds bound {bound.aipc_bound:.4f} "
        f"(binding roof {bound.binding_roof})"
    )
    # The bound is also non-vacuous: within 50x of the measurement
    # (catches a regression to an effectively infinite bound).
    assert bound.aipc_bound <= max(1.0, result.aipc * 50)


def test_bounds_are_deterministic_across_cache_clears():
    spec = CellSpec(config=WaveScalarConfig(), workload="gzip",
                    scale="tiny")
    first = bound_for_cell(spec).to_dict()
    clear_statics_cache()
    assert bound_for_cell(spec).to_dict() == first
