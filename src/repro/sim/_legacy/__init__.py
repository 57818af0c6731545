"""Frozen pre-overhaul simulator snapshot (regression oracle).

``repro.sim._legacy`` preserves the engine and instruction store
exactly as they behaved before the hot-path overhaul: their reachable
code is frozen, and only dead hooks and unreached methods have been
deleted.  The engine's matching table is the live
:class:`repro.sim.pe.matching.MatchingTable`, whose ``insert`` the
production engine inlines in its event loop, so every comparison
checks that inlined probe against the table it copies.  The
golden-stats test suite proves the production engine bit-identical
to this snapshot, and the differential fuzzer runs every program on
both.  Never import this package from production code; callers
import :class:`repro.sim._legacy.engine.Engine`.
"""
