"""One seeded-defect test per config rule (C001-C009)."""

from dataclasses import replace

from repro.analysis import Severity, analyze_config
from repro.core.config import BASELINE, WaveScalarConfig


def rules_fired(config, *rule_ids):
    return [d for d in analyze_config(config).diagnostics
            if d.rule in rule_ids]


def test_baseline_is_error_free():
    assert not analyze_config(BASELINE).has_errors


def test_c001_die_area_budget():
    config = WaveScalarConfig(clusters=16, l2_mb=16)  # ~930 mm2
    diags = rules_fired(config, "C001")
    assert len(diags) == 1
    assert diags[0].severity is Severity.ERROR
    assert "mm2 budget" in diags[0].message


def test_c002_oversized_matching_table():
    config = WaveScalarConfig(matching_entries=256)
    diags = rules_fired(config, "C002")
    assert diags
    assert all(d.severity is Severity.ERROR for d in diags)
    assert any("matching_entries=256" in d.message for d in diags)


def test_c002_oversized_virtualization():
    config = WaveScalarConfig(virtualization=512)
    diags = rules_fired(config, "C002")
    assert any("virtualization=512" in d.message for d in diags)


def test_c003_surplus_banks():
    # 8 entries / assoc 2 = 4 sets, but 16 banks.
    config = WaveScalarConfig(
        matching_entries=8, matching_banks=16, matching_hash_k=16
    )
    diags = rules_fired(config, "C003")
    assert len(diags) == 2
    assert all(d.severity is Severity.WARNING for d in diags)
    assert any("banks" in d.message for d in diags)
    assert any("hash parameter" in d.message for d in diags)


def test_c004_line_larger_than_l1():
    config = WaveScalarConfig(l1_kb=1, line_bytes=2048)
    diags = rules_fired(config, "C004")
    assert len(diags) == 1
    assert "single" in diags[0].message


def test_c004_associativity_exceeds_lines():
    config = WaveScalarConfig(l1_kb=1, line_bytes=128,
                              l1_associativity=64)
    diags = rules_fired(config, "C004")
    assert len(diags) == 1
    assert "associativity" in diags[0].message


def test_c005_zero_wave_store_buffer():
    config = replace(BASELINE, storebuffer_waves=0)
    diags = rules_fired(config, "C005")
    assert len(diags) == 1
    assert diags[0].severity is Severity.ERROR
    assert "no waves" in diags[0].message


def test_c005_surplus_partial_store_queues():
    config = replace(BASELINE, storebuffer_waves=2,
                     partial_store_queues=8)
    diags = rules_fired(config, "C005")
    assert any("partial-store queues" in d.message
               and d.severity is Severity.WARNING for d in diags)


def test_c006_capacity_floor():
    config = WaveScalarConfig(
        clusters=1, domains_per_cluster=1, pes_per_domain=2,
        virtualization=16, matching_entries=16,
    )
    diags = rules_fired(config, "C006")
    assert len(diags) == 1
    assert "floor" in diags[0].message


def test_c007_unbalanced_tiling():
    # Two clusters of a single domain each: clusters added before
    # domains were filled.
    config = WaveScalarConfig(clusters=2, domains_per_cluster=1)
    diags = rules_fired(config, "C007")
    assert len(diags) == 1
    assert "unbalanced tiling" in diags[0].message


def test_c008_contradictory_l2_latency():
    config = replace(BASELINE, l2_mb=4, l2_base_latency=40,
                     l2_max_latency=30)
    diags = rules_fired(config, "C008")
    assert any(d.severity is Severity.ERROR and "contradictory"
               in d.message for d in diags)


def test_c008_dram_not_slower_than_l2():
    config = replace(BASELINE, l2_mb=4, dram_latency=25)
    diags = rules_fired(config, "C008")
    assert any(d.severity is Severity.WARNING and "DRAM" in d.message
               for d in diags)


def test_c009_off_ratio_is_informational():
    config = WaveScalarConfig(matching_entries=64, virtualization=128)
    diags = rules_fired(config, "C009")
    assert len(diags) == 1
    assert diags[0].severity is Severity.INFO
    assert "M/V ratio" in diags[0].message
