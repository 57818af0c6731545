"""Tests for the naive-replication scaling analysis."""

import pytest

from repro.area.model import chip_area
from repro.core.config import WaveScalarConfig
from repro.design import ParetoPoint, replicate, run_scaling_study


def test_replicate_scales_clusters_and_l2():
    base = WaveScalarConfig(clusters=1, l2_mb=4, l1_kb=16)
    scaled = replicate(base, 4)
    assert scaled.config.clusters == 4
    assert scaled.config.l2_mb == 16
    assert scaled.config.l1_kb == 16  # per-cluster resources unchanged
    assert scaled.area_mm2 == pytest.approx(chip_area(scaled.config))
    assert scaled.area_mm2 > 3 * chip_area(base)


def make_point(clusters, v, l2, perf):
    config = WaveScalarConfig(
        clusters=clusters, virtualization=v, matching_entries=v, l2_mb=l2
    )
    return ParetoPoint(
        label=config.describe(),
        area=chip_area(config),
        performance=perf,
        payload=config,
    )


def test_run_scaling_study_selects_named_points():
    singles = [
        make_point(1, 128, 0, 1.5),   # small, efficient
        make_point(1, 128, 1, 3.5),   # best perf/area
        make_point(1, 128, 4, 3.9),   # best absolute performance ('a')
    ]
    quads = [
        make_point(4, 64, 1, 4.9),    # smallest 4-cluster ('e')
        make_point(4, 128, 1, 7.8),
    ]
    study = run_scaling_study(singles + quads)
    assert study.a.performance == 3.9
    assert study.c.performance == 3.5  # highest perf/area single
    assert study.e.payload.virtualization == 64
    assert study.b.config.clusters == 4
    assert study.b.config.l2_mb == 16  # naive scaling blows up the L2
    assert study.d.config.clusters == 4
    assert study.e16.config.clusters == 16
    # Naive scaling of 'a' is much larger than scaling 'c'.
    assert study.b.area_mm2 > study.d.area_mm2


def test_run_scaling_study_requires_both_sizes():
    singles = [make_point(1, 128, 0, 1.0)]
    with pytest.raises(ValueError):
        run_scaling_study(singles)
