"""Tests for the Table 3 area model."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.area import (
    MAX_DIE_MM2,
    breakdown,
    chip_area,
    cluster_area,
    domain_area,
    pe_area,
)
from repro.core.config import BASELINE, WaveScalarConfig


def test_baseline_cluster_area_matches_paper():
    """Table 2/3 cross-check: one baseline cluster is ~43-44 mm^2
    before utilisation (paper Table 2 reports 42.5 measured)."""
    area = cluster_area(BASELINE)
    assert 41.0 < area < 46.0


def test_paper_table5_config17_area():
    """Table 5 row 17: C16 V64 M64 L1=8 L2=0 -> 387 mm^2."""
    config = WaveScalarConfig(
        clusters=16, virtualization=64, matching_entries=64, l1_kb=8,
        l2_mb=0,
    )
    assert chip_area(config) == pytest.approx(387, rel=0.01)


def test_paper_table5_config18_area():
    """Table 5 row 18: adds 1MB L2 -> 399 mm^2."""
    config = WaveScalarConfig(
        clusters=16, virtualization=64, matching_entries=64, l1_kb=8,
        l2_mb=1,
    )
    assert chip_area(config) == pytest.approx(399, rel=0.01)


def test_pe_area_formula():
    """PE_area = M*0.004 + V*0.002 + 0.05 exactly (Table 3)."""
    assert pe_area(BASELINE) == pytest.approx(
        128 * 0.004 + 128 * 0.002 + 0.05
    )


def test_breakdown_total_matches_chip_area():
    for config in (
        BASELINE,
        WaveScalarConfig(clusters=4, l2_mb=2),
        WaveScalarConfig(clusters=16, virtualization=64,
                         matching_entries=64, l1_kb=8, l2_mb=1),
    ):
        assert breakdown(config).total == pytest.approx(chip_area(config))


def test_sram_dominates_cluster_area():
    """Section 4.1: ~80% of the area is SRAM cells."""
    bd = breakdown(BASELINE)
    assert 0.7 < bd.sram_fraction < 0.9


def test_pe_share_of_cluster():
    """PEs dominate the cluster budget.  Table 2 (measured RTL) puts
    them at 71%; the Table 3 closed-form constants yield ~60% because
    they slightly undervalue the PE relative to Table 2 (the paper's
    own tables differ here -- see EXPERIMENTS.md)."""
    bd = breakdown(BASELINE)
    share = bd.pe_total / bd.cluster_logic
    assert 0.5 < share < 0.78


def test_fits_die():
    assert chip_area(BASELINE) <= MAX_DIE_MM2
    huge = WaveScalarConfig(clusters=64, l2_mb=0)
    assert chip_area(huge) > MAX_DIE_MM2


@settings(max_examples=60, deadline=None)
@given(
    clusters=st.sampled_from([1, 2, 4, 8, 16]),
    v=st.sampled_from([8, 16, 32, 64, 128, 256]),
    m=st.sampled_from([16, 32, 64, 128]),
    l1=st.sampled_from([8, 16, 32]),
    l2=st.sampled_from([0, 1, 2, 4]),
)
def test_area_monotone_in_every_parameter(clusters, v, m, l1, l2):
    base = WaveScalarConfig(
        clusters=clusters, virtualization=v, matching_entries=m,
        l1_kb=l1, l2_mb=l2,
    )
    a0 = chip_area(base)
    assert a0 > 0
    grown = {
        "clusters": clusters + 1,
        "virtualization": v * 2,
        "matching_entries": m * 2,
        "l1_kb": l1 * 2,
        "l2_mb": l2 + 1,
    }
    for field_name, value in grown.items():
        bigger = dataclasses.replace(base, **{field_name: value})
        assert chip_area(bigger) > a0, field_name


def test_domain_area_scales_with_pes():
    small = WaveScalarConfig(domains_per_cluster=1, pes_per_domain=2)
    assert domain_area(small) < domain_area(BASELINE)
