"""Frozen pre-overhaul simulator snapshot (regression oracle).

``repro.sim._legacy`` preserves the engine, matching table, and
instruction store exactly as they behaved before the hot-path
overhaul: their reachable code is frozen, and only the engine's dead
hooks (fault filter, instrumented loop twin) have been deleted.  The
golden-stats test suite proves the production engine bit-identical
to this snapshot, and the differential fuzzer runs every program on
both.  Never import this package from production code.
"""

from .engine import Engine, simulate
from .istore import InstructionStore
from .matching import MatchingTable

__all__ = ["Engine", "simulate", "InstructionStore", "MatchingTable"]
