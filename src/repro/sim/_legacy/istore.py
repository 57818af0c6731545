"""The PE instruction store (Section 3.2).

Holds the decoded instructions bound to a PE.  Placement may assign a
PE more static instructions than its ``V`` slots (the processor
dynamically re-binds instructions on demand, "swapping them in and out"
-- Section 3.1).  The store therefore behaves as a fully-associative
LRU cache over the PE's assigned instructions; a *miss* fetches the
instruction's decoded state from memory at roughly 3x the cost of a
matching-table miss (Section 4.2).
"""

from __future__ import annotations

from collections import OrderedDict


class InstructionStore:
    """LRU-managed instruction residency for one PE."""

    def __init__(self, capacity: int, assigned: list[int]) -> None:
        self.capacity = capacity
        self.assigned = list(assigned)
        self._resident: OrderedDict[int, None] = OrderedDict()
        # Pre-load in slot order up to capacity (cold start: the first
        # `capacity` instructions are resident, mirroring initial
        # binding).
        for inst_id in self.assigned[:capacity]:
            self._resident[inst_id] = None
        self.hits = 0
        self.misses = 0

    @property
    def over_subscribed(self) -> bool:
        return len(self.assigned) > self.capacity

    def hit(self, inst_id: int) -> bool:
        """Probe for residency; refreshes LRU and counts on a hit."""
        if inst_id in self._resident:
            self._resident.move_to_end(inst_id)
            self.hits += 1
            return True
        return False

    def fill(self, inst_id: int) -> None:
        """Complete a fetch: bind ``inst_id``, evicting LRU if full."""
        self.misses += 1
        if len(self._resident) >= self.capacity:
            self._resident.popitem(last=False)
        self._resident[inst_id] = None
