"""Cycle-time model (Section 2.1 and 4.1).

The paper holds clock frequency at 20 FO4 across the design space and
reports how structure sizes interact with that target:

* FO1 measured at 15.8 ps via a synthesised ring oscillator; FO4
  approximated as 3x FO1 = 47.3 ps (90 nm GT cells).
* The PE critical path is the integer multiplier fed from the pod
  partner's bypass -- until the matching cache or instruction store
  grows past 256 entries, at which point MATCH/DISPATCH paths dominate
  (+21% cycle time for a 256-entry matching cache, +7% for a 256-entry
  instruction store).
* Below 256 entries, resizing changes cycle time by under 5%.

This module encodes those measurements so the design-space pruner can
reject configurations that would break the 20 FO4 target, and so
results can be converted from cycles to wall-clock time.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.config import WaveScalarConfig

FO1_PS = 15.8
FO4_PS = 3 * FO1_PS  # 47.4 ps (the paper rounds to 47.3)
TARGET_CYCLE_FO4 = 20.0

#: Largest structure sizes that keep the 20 FO4 clock (Section 4.1).
MAX_MATCHING_ENTRIES = 128
MAX_VIRTUALIZATION = 256  # "structure size limits ... in Table 3" cap V at 256
MAX_PES_PER_DOMAIN = 8
MAX_DOMAINS_PER_CLUSTER = 4

#: Cycle-time penalty factors at 256 entries (Section 4.1).
MATCHING_256_PENALTY = 1.21
ISTORE_256_PENALTY = 1.07
#: Sub-256 structures vary the clock by <5%; we model that as exactly
#: 1.0 (the paper treats them as equal).
SMALL_STRUCTURE_FACTOR = 1.0


@dataclass(frozen=True)
class TimingReport:
    """Clock analysis of one configuration."""

    cycle_fo4: float
    cycle_ps: float
    frequency_ghz: float
    critical_path: str
    meets_target: bool


def cycle_time_fo4(config: WaveScalarConfig) -> tuple[float, str]:
    """(cycle time in FO4, critical-path description)."""
    factor = SMALL_STRUCTURE_FACTOR
    path = "EXECUTE integer multiply via pod bypass"
    if config.matching_entries >= 256:
        factor = max(factor, MATCHING_256_PENALTY)
        path = "MATCH: matching-cache access"
    if config.virtualization >= 256 and config.virtualization > \
            config.matching_entries:
        factor = max(factor, ISTORE_256_PENALTY)
        if factor == ISTORE_256_PENALTY:
            path = "DISPATCH: instruction-store access"
    elif config.virtualization >= 256:
        factor = max(factor, ISTORE_256_PENALTY)
    return TARGET_CYCLE_FO4 * factor, path


def timing_report(config: WaveScalarConfig) -> TimingReport:
    fo4, path = cycle_time_fo4(config)
    ps = fo4 * FO4_PS
    return TimingReport(
        cycle_fo4=fo4,
        cycle_ps=ps,
        frequency_ghz=1e3 / ps,
        critical_path=path,
        meets_target=fo4 <= TARGET_CYCLE_FO4 + 1e-9,
    )


def meets_clock_target(config: WaveScalarConfig) -> bool:
    """True when the configuration sustains the 20 FO4 clock."""
    report = timing_report(config)
    return (
        report.meets_target
        and config.matching_entries <= MAX_MATCHING_ENTRIES
        and config.virtualization <= MAX_VIRTUALIZATION
        and config.pes_per_domain <= MAX_PES_PER_DOMAIN
        and config.domains_per_cluster <= MAX_DOMAINS_PER_CLUSTER
    )
