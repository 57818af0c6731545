"""Tests for the bottom-up area estimator (the RTL substitute)."""

import pytest

from repro.area import estimate_constants
from repro.area import model
from repro.area.estimator import (
    flop_array_mm2,
    istore_mm2,
    l1_mm2_per_kb,
    l2_mm2_per_mb,
    logic_mm2,
    matching_table_mm2,
    sram_mm2,
)


def test_every_constant_within_2x_of_paper():
    """The headline cross-check: first-principles densities land within
    a factor of two of the paper's synthesized constants."""
    est = estimate_constants()
    pairs = [
        (est.matching_mm2_per_entry, model.MATCHING_MM2_PER_ENTRY),
        (est.istore_mm2_per_instruction, model.ISTORE_MM2_PER_INSTRUCTION),
        (est.pe_other_mm2, model.PE_OTHER_MM2),
        (est.pseudo_pe_mm2, model.PSEUDO_PE_MM2),
        (est.store_buffer_mm2, model.STORE_BUFFER_MM2),
        (est.l1_mm2_per_kb, model.L1_MM2_PER_KB),
        (est.network_switch_mm2, model.NETWORK_SWITCH_MM2),
        (est.l2_mm2_per_mb, model.L2_MM2_PER_MB),
    ]
    for estimated, paper in pairs:
        assert 0.5 < estimated / paper < 2.0


def test_flop_storage_denser_structures_cost_more():
    assert matching_table_mm2(128) > matching_table_mm2(16)
    assert istore_mm2(256) > istore_mm2(8)


def test_multiporting_is_quadratic():
    single = sram_mm2(8192, ports=1)
    quad = sram_mm2(8192, ports=4)
    assert quad == pytest.approx(16 * single)


def test_l2_density_beats_l1():
    """Per bit, the single-ported L2 macro is far denser than the
    4-ported L1 (the reason the paper's L2 costs 11.78 mm2/MB while
    the L1 costs 0.363 mm2/KB = 372 mm2/MB)."""
    l1_per_mb = l1_mm2_per_kb() * 1024
    assert l1_per_mb > 10 * l2_mm2_per_mb()


def test_logic_density():
    assert logic_mm2(250_000) == pytest.approx(1.0)
    assert flop_array_mm2(1_000_000 / 18) == pytest.approx(1.0)
