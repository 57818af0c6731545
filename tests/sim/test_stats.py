"""Unit tests for the statistics container."""

import pytest

from repro.sim.stats import KINDS, LEVELS, SimStats


def test_empty_stats_are_zero():
    stats = SimStats()
    assert stats.aipc == 0.0
    assert stats.ipc == 0.0
    assert stats.matching_miss_rate == 0.0
    assert stats.l1_miss_rate == 0.0
    assert stats.average_message_latency == 0.0
    assert stats.traffic_fractions() == {lv: 0.0 for lv in LEVELS}


def test_record_message_accumulates():
    stats = SimStats()
    stats.record_message("operand", "pod", latency=1)
    stats.record_message("operand", "domain", latency=5)
    stats.record_message("memory", "grid", latency=12, hops=3)
    assert stats.message_count == 3
    assert stats.average_message_latency == pytest.approx(6.0)
    assert stats.average_message_hops == pytest.approx(1.0)
    fr = stats.traffic_fractions()
    assert fr["pod"] == pytest.approx(1 / 3)
    assert fr["grid"] == pytest.approx(1 / 3)
    assert sum(stats.messages["operand"].values()) == 2
    assert stats.within_cluster_fraction() == pytest.approx(2 / 3)


def test_aipc_and_ipc():
    stats = SimStats()
    stats.cycles = 100
    stats.alpha_instructions = 40
    stats.dynamic_instructions = 90
    assert stats.aipc == pytest.approx(0.4)
    assert stats.ipc == pytest.approx(0.9)
    assert stats.ipc >= stats.aipc


def test_rates():
    stats = SimStats()
    stats.matching_inserts = 100
    stats.matching_misses = 7
    stats.l1_hits = 80
    stats.l1_misses = 20
    assert stats.matching_miss_rate == pytest.approx(0.07)
    assert stats.l1_miss_rate == pytest.approx(0.2)


def test_output_values_flatten_in_order():
    stats = SimStats()
    stats.outputs = {3: [1, 2], 1: [9]}
    assert stats.output_values() == [9, 1, 2]


def test_record_message_unknown_kind_names_valid_values():
    stats = SimStats()
    with pytest.raises(ValueError) as excinfo:
        stats.record_message("bogus", "pod", latency=1)
    message = str(excinfo.value)
    assert "bogus" in message
    for kind in KINDS:
        assert kind in message


def test_record_message_unknown_level_names_valid_values():
    stats = SimStats()
    with pytest.raises(ValueError) as excinfo:
        stats.record_message("operand", "bogus", latency=1)
    message = str(excinfo.value)
    assert "bogus" in message
    for level in LEVELS:
        assert level in message


def test_record_message_error_leaves_counts_untouched():
    stats = SimStats()
    with pytest.raises(ValueError):
        stats.record_message("bogus", "pod", latency=1)
    assert stats.message_count == 0
    assert stats.traffic_fractions() == {lv: 0.0 for lv in LEVELS}


def test_fraction_edges_with_zero_messages():
    stats = SimStats()
    assert stats.traffic_fractions() == {lv: 0.0 for lv in LEVELS}
    assert stats.within_cluster_fraction() == 0.0
    assert stats.average_message_latency == 0.0
    assert stats.average_message_hops == 0.0


def test_summary_with_zero_cycles_does_not_divide_by_zero():
    stats = SimStats()
    text = stats.summary()
    assert "AIPC=0.000" in text
    assert "cycles=0" in text


def test_events_processed_defaults_to_zero():
    assert SimStats().events_processed == 0


def test_summary_renders_key_numbers():
    stats = SimStats()
    stats.cycles = 10
    stats.alpha_instructions = 5
    stats.record_message("operand", "pod", 1)
    text = stats.summary()
    assert "AIPC=0.500" in text
    assert "cycles=10" in text
