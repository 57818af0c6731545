"""Saving design-space evaluations.

Pareto sweeps are the expensive part of the study; ``repro sweep
--save`` writes its evaluated points (each with its full configuration)
to JSON through :func:`dump_points`, so a sweep can be archived and
re-plotted without re-simulating.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Sequence

from ..core.config import WaveScalarConfig
from .pareto import ParetoPoint

#: Format version; bump on breaking layout changes.
FORMAT = 1


def _config_to_dict(config: WaveScalarConfig) -> dict:
    return dataclasses.asdict(config)


def dump_points(
    points: Sequence[ParetoPoint],
    path: str | Path,
    metadata: dict | None = None,
) -> None:
    """Write evaluated points (with their configurations) to JSON."""
    payload = {
        "format": FORMAT,
        "metadata": metadata or {},
        "points": [
            {
                "label": p.label,
                "area_mm2": p.area,
                "performance": p.performance,
                "config": _config_to_dict(p.payload)
                if isinstance(p.payload, WaveScalarConfig)
                else None,
            }
            for p in points
        ],
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True))
