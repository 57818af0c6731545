"""Simulation results as returned by the public API."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..area.model import AreaBreakdown
from ..area.timing import TimingReport
from ..sim.stats import SimStats
from .config import WaveScalarConfig


@dataclass(frozen=True)
class SimulationResult:
    """One program executed on one configuration.

    Bundles the raw microarchitectural statistics with the area and
    timing models so a caller has everything the paper's evaluation
    plots in one object.
    """

    program: str
    config: WaveScalarConfig
    stats: SimStats
    area: AreaBreakdown
    timing: TimingReport
    threads: Optional[int] = None

    # -- headline metrics ----------------------------------------------
    @property
    def cycles(self) -> int:
        return self.stats.cycles

    @property
    def aipc(self) -> float:
        """Alpha-equivalent instructions per cycle (paper's metric)."""
        return self.stats.aipc

    @property
    def ipc(self) -> float:
        return self.stats.ipc

    @property
    def area_mm2(self) -> float:
        return self.area.total

    @property
    def aipc_per_mm2(self) -> float:
        return self.aipc / self.area_mm2 if self.area_mm2 else 0.0

    @property
    def runtime_seconds(self) -> float:
        """Wall-clock time at the configuration's 20 FO4 clock."""
        return self.cycles * self.timing.cycle_ps * 1e-12

    def outputs(self) -> list:
        return self.stats.output_values()

    def summary(self) -> str:
        return (
            f"{self.program} on {self.config.describe()}"
            f"{f' x{self.threads}thr' if self.threads else ''}: "
            f"{self.stats.summary()} area={self.area_mm2:.0f}mm2"
        )
