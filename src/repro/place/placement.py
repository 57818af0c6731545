"""Placement result shared between the placer and the simulator."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Placement:
    """A binding of static instructions to processing elements.

    Attributes
    ----------
    pe_of:
        instruction id -> global PE index.
    slot_of:
        instruction id -> dense slot within its PE's instruction store
        (the ``I`` of the matching-table hash ``I*k + (w mod k)``).
    thread_home:
        thread id -> cluster index whose store buffer orders that
        thread's memory operations.
    assigned:
        global PE index -> instruction ids, in slot order.
    """

    pe_of: dict[int, int]
    slot_of: dict[int, int]
    thread_home: dict[int, int]
    assigned: dict[int, list[int]] = field(default_factory=dict)

    def max_occupancy(self) -> int:
        return max((len(ids) for ids in self.assigned.values()), default=0)

    def used_pes(self) -> int:
        return sum(1 for ids in self.assigned.values() if ids)
