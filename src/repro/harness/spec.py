"""Cell specifications: the unit of work a sweep schedules.

One *cell* is one ``(config, workload, threads)`` simulation with all
parameters pinned -- scale, k-bound, seed and cycle/event budgets.
Its :meth:`~CellSpec.cell_hash` is a content hash of the *complete*
spec, so a results ledger keyed by it can never confuse a low-budget
verdict with a high-budget request (the bug the old memoisation key
had), and any change to the cell re-runs it on resume.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, replace
from typing import Optional

from ..core.config import WaveScalarConfig

#: Default sweep budgets (a starved configuration crawling through
#: matching-table thrash scores zero rather than stalling the
#: campaign).
SWEEP_MAX_CYCLES = 5_000_000
SWEEP_MAX_EVENTS = 1_000_000


@dataclass(frozen=True)
class CellSpec:
    """One fully pinned simulation cell."""

    config: WaveScalarConfig
    workload: str
    scale: str = "small"  # Scale.value, kept a str for JSON round-trips
    threads: Optional[int] = None
    k: Optional[int] = None
    seed: int = 0
    max_cycles: int = SWEEP_MAX_CYCLES
    max_events: int = SWEEP_MAX_EVENTS

    def as_dict(self) -> dict:
        return {
            "config": asdict(self.config),
            "workload": self.workload,
            "scale": self.scale,
            "threads": self.threads,
            "k": self.k,
            "seed": self.seed,
            "max_cycles": self.max_cycles,
            "max_events": self.max_events,
            "faults": None,  # hash and ledger format: keeps every cell hash
        }

    def _digest(self, memo: str, *dropped: str) -> str:
        """The content hash of every field but ``dropped``, computed
        once per instance (every field is frozen) and kept in
        ``__dict__`` under ``memo`` -- not a dataclass field, so
        ``==``, ``asdict`` and ``replace()`` never see it."""
        digest = self.__dict__.get(memo)
        if digest is None:
            fields = self.as_dict()
            for name in dropped:
                del fields[name]
            canonical = json.dumps(fields, sort_keys=True,
                                   separators=(",", ":"))
            digest = hashlib.sha256(canonical.encode()).hexdigest()[:16]
            object.__setattr__(self, memo, digest)
        return digest

    def cell_hash(self) -> str:
        """Stable content hash over every field, budgets included."""
        return self._digest("_cell_hash")

    def identity_hash(self) -> str:
        """Content hash of the cell's *identity* -- every field except
        the cycle/event budgets.  Budget escalation produces a new
        :meth:`cell_hash` (a bigger budget is a different request) but
        the same identity, which is what the chaos layer and the
        per-cell circuit breaker key on: an injected fault or a crash
        streak follows the cell across escalated retries.
        """
        return self._digest("_identity_hash", "max_cycles", "max_events")

    def escalated(self, factor: float) -> "CellSpec":
        """The same cell with both budgets scaled up (retry policy)."""
        return replace(
            self,
            max_cycles=int(self.max_cycles * factor),
            max_events=int(self.max_events * factor),
        )

    def describe(self) -> str:
        threads = f" x{self.threads}thr" if self.threads else ""
        return f"{self.workload}@{self.scale}{threads} on " \
               f"{self.config.describe()}"

    @classmethod
    def from_dict(cls, data: dict) -> "CellSpec":
        spec = cls(
            config=WaveScalarConfig(**data["config"]),
            workload=data["workload"],
            scale=data.get("scale", "small"),
            threads=data.get("threads"),
            k=data.get("k"),
            seed=data.get("seed", 0),
            max_cycles=data.get("max_cycles", SWEEP_MAX_CYCLES),
            max_events=data.get("max_events", SWEEP_MAX_EVENTS),
        )
        faults = data.get("faults")
        if faults is not None:
            raise ValueError(
                f"{spec.describe()}: record carries a fault plan "
                f"{faults!r}; the simulator takes none"
            )
        return spec
