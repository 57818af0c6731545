"""Tests for sweep serialisation."""

import json

from repro.core.config import WaveScalarConfig
from repro.design import ParetoPoint, dump_points


def make_points():
    configs = [
        WaveScalarConfig(clusters=1, l1_kb=8),
        WaveScalarConfig(clusters=4, virtualization=64,
                         matching_entries=64, l2_mb=1),
    ]
    return [
        ParetoPoint(label=c.describe(), area=float(i + 40),
                    performance=1.5 * (i + 1), payload=c)
        for i, c in enumerate(configs)
    ]


def test_roundtrip(tmp_path):
    points = make_points()
    path = tmp_path / "sweep.json"
    dump_points(points, path, metadata={"suite": "splash", "scale": "tiny"})
    payload = json.loads(path.read_text())
    assert payload["format"] == 1
    assert payload["metadata"]["suite"] == "splash"
    assert len(payload["points"]) == len(points)
    for a, b in zip(points, payload["points"]):
        assert a.label == b["label"]
        assert a.area == b["area_mm2"]
        assert a.performance == b["performance"]
        # full config reconstruction
        assert a.payload == WaveScalarConfig(**b["config"])
