"""Public API of the WaveScalar reproduction.

Most users need only::

    from repro.core import WaveScalarConfig, WaveScalarProcessor

    proc = WaveScalarProcessor(WaveScalarConfig(clusters=4))
    result = proc.run(graph)
    print(result.aipc, result.area_mm2)
"""

from .config import BASELINE, WaveScalarConfig
from .processor import WaveScalarProcessor
from .results import SimulationResult

__all__ = [
    "BASELINE",
    "WaveScalarConfig",
    "WaveScalarProcessor",
    "SimulationResult",
]
