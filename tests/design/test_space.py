"""Tests for design-space enumeration and pruning."""

import random

import pytest

from repro.area.model import MAX_DIE_MM2, chip_area
from repro.core.config import WaveScalarConfig
from repro.design import (
    MIN_CAPACITY,
    balanced_designs,
    is_balanced,
    matches_ratio,
    prune,
    viable_designs,
)
from repro.design import space
from repro.design.space import enumerate_raw


def test_raw_count_over_twenty_one_thousand():
    """Paper: 'over twenty-one thousand' raw configurations."""
    assert sum(1 for _ in enumerate_raw()) > 21_000


def test_balance_rules():
    # Fewer than 8 PEs/domain -> single domain only.
    assert not is_balanced(
        WaveScalarConfig(pes_per_domain=4, domains_per_cluster=2)
    )
    assert is_balanced(
        WaveScalarConfig(pes_per_domain=4, domains_per_cluster=1)
    )
    # Fewer than 4 domains -> single cluster.
    assert not is_balanced(
        WaveScalarConfig(clusters=4, domains_per_cluster=2,
                         pes_per_domain=8)
    )
    # Non-square multi-cluster grids rejected.
    assert not is_balanced(WaveScalarConfig(clusters=2))
    assert is_balanced(WaveScalarConfig(clusters=4))
    # Oversized L2 rejected.
    assert not is_balanced(WaveScalarConfig(l2_mb=8))


def test_matches_ratio():
    config = WaveScalarConfig(virtualization=128, matching_entries=128)
    assert matches_ratio(config, 1.0)
    assert not matches_ratio(config, 0.5)
    half = WaveScalarConfig(virtualization=128, matching_entries=64)
    assert matches_ratio(half, 0.5)


def test_viable_designs_funnel():
    balanced = balanced_designs()
    viable = viable_designs()
    # Ours next to the paper's 21,000+ -> 344 -> 41 (see the module
    # docstring); bench/expected.json depends on viable_designs()[::4]
    # being exactly these designs.
    assert sum(1 for _ in enumerate_raw()) == 31752
    assert len(balanced) == 1534
    assert len(viable) == 68
    assert len(viable_designs(0.5)) == 64


@pytest.mark.parametrize("ratio", [1.0, 0.5, 0.25, 2.0])
def test_viable_designs_are_the_funnel_over_the_raw_grid(ratio):
    """Deciding the balance and ratio rules before a config exists
    gives what pruning the whole cross product gives: same configs,
    same area floats, same order."""
    assert viable_designs(ratio) == prune(enumerate_raw(), ratio=ratio)


def test_balanced_designs_are_the_funnel_over_the_raw_grid():
    assert balanced_designs() == prune(
        enumerate_raw(), ratio=None, min_capacity=0)


def test_only_admitted_grid_points_are_built(monkeypatch):
    built = []
    post_init = WaveScalarConfig.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(WaveScalarConfig, "__post_init__", counted)
    viable_designs()
    assert len(built) <= 384  # of 31,752
    del built[:]
    balanced_designs()
    assert len(built) <= 2304


def test_prune_does_not_depend_on_input_order():
    configs = list(enumerate_raw())[::7]
    shuffled = configs[:]
    random.Random(7).shuffle(shuffled)
    assert prune(shuffled) == prune(configs)
    assert prune(iter(shuffled), ratio=0.5) == prune(configs, ratio=0.5)


def test_prune_rejects_a_config_that_fails_only_the_clock_target(
        monkeypatch):
    slow = WaveScalarConfig(virtualization=512, matching_entries=512)
    assert is_balanced(slow) and matches_ratio(slow, 1.0)
    assert slow.total_instruction_capacity >= MIN_CAPACITY
    assert chip_area(slow) <= MAX_DIE_MM2
    assert prune([slow]) == []
    monkeypatch.setattr(space, "meets_clock_target", lambda config: True)
    assert [d.config for d in prune([slow])] == [slow]


def test_is_balanced_is_the_grid_value_rule():
    """``analysis/config_rules.py`` imports ``is_balanced``; it and the
    enumeration must be one rule, operand for operand."""
    balanced = 0
    for config in enumerate_raw():
        assert is_balanced(config) == space._balanced(
            clusters=config.clusters, domains=config.domains_per_cluster,
            pes=config.pes_per_domain, l2_mb=config.l2_mb), config
        balanced += is_balanced(config)
    assert balanced == 2304  # of 31,752


def test_viable_designs_all_satisfy_constraints():
    for design in viable_designs():
        config = design.config
        assert is_balanced(config)
        assert matches_ratio(config, 1.0)
        assert config.total_instruction_capacity >= MIN_CAPACITY
        assert design.area_mm2 <= MAX_DIE_MM2
        assert design.area_mm2 == chip_area(config)


def test_viable_designs_span_paper_range():
    """Paper: designs from ~40 to ~400 mm^2."""
    designs = viable_designs()
    assert designs[0].area_mm2 < 45
    assert designs[-1].area_mm2 > 350


def test_viable_sorted_by_area():
    designs = viable_designs()
    areas = [d.area_mm2 for d in designs]
    assert areas == sorted(areas)


def test_prune_with_other_ratio():
    half = prune(enumerate_raw(), ratio=0.5)
    for design in half:
        assert matches_ratio(design.config, 0.5)


def test_paper_table5_configs_are_viable():
    """Every Table 5 configuration appears in our viable set."""
    table5 = [
        WaveScalarConfig(clusters=1, virtualization=128,
                         matching_entries=128, l1_kb=8, l2_mb=0),
        WaveScalarConfig(clusters=1, virtualization=128,
                         matching_entries=128, l1_kb=32, l2_mb=2),
        WaveScalarConfig(clusters=4, virtualization=64,
                         matching_entries=64, l1_kb=8, l2_mb=1),
        WaveScalarConfig(clusters=4, virtualization=128,
                         matching_entries=128, l1_kb=32, l2_mb=4),
        WaveScalarConfig(clusters=16, virtualization=64,
                         matching_entries=64, l1_kb=8, l2_mb=1),
    ]
    viable = {d.config for d in viable_designs()}
    for config in table5:
        assert config in viable, config.describe()
