"""The matching table: a specialised operand cache (Section 3.2).

The matching table is the heart -- and 60% of the area -- of a
WaveScalar PE.  It emulates a conceptually infinite token store with a
small physical structure:

* ``M`` rows, set-associative (2-way in the paper's chosen design),
  three operand columns per row (the third column holds only the 1-bit
  predicate operands of STEER/MERGE).
* Rows are indexed by the tuned hash ``I*k + (w mod k)`` where ``I`` is
  the instruction's slot in this PE's instruction store and ``w`` the
  token's wave (Section 4.2's *matching table equation* machinery).
* Four banks accept up to four incoming operands per cycle; bank
  conflicts force retries (the INPUT stage "reject" of Section 3.2).
* When no way is free for an incoming token, the youngest row of the
  set by ``(wave, thread, inst)`` is evicted to the in-memory overflow
  table and its tokens return after a memory round trip -- a
  *matching-table miss*.  If the incoming token is itself younger than
  every resident row, it is deflected to the overflow table instead.

The tracker board (which operands are present per row) is the
``key -> ports`` dict of the table; each set holds the keys of its
resident rows.  :class:`MatchRow` records are built only for callers
that take rows out of the table (completed and evicted rows of
:meth:`MatchingTable.insert`, diagnostics).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ...isa.token import Value


@dataclass(slots=True)
class MatchRow:
    """One occupied matching-table row (tracker-board entry + operands)."""

    key: tuple[int, int, int]  # (thread, wave, inst)
    ports: dict[int, Value] = field(default_factory=dict)


@dataclass(slots=True)
class InsertResult:
    """Outcome of offering one token to the table."""

    accepted: bool  # False => bank conflict, retry next cycle
    fired: Optional[MatchRow] = None  # completed row, removed from table
    evicted: Optional[MatchRow] = None  # victim row sent to overflow
    miss: bool = False  # an eviction/deflection happened (table miss)
    #: The incoming token itself goes to the overflow table (it is
    #: younger than every resident row in its set -- oldest-wave
    #: priority guarantees forward progress under thrashing).
    deflected: bool = False


#: Shared immutable-in-practice results for the outcomes that carry no
#: row.  Callers treat results as read-only.
_REJECTED = InsertResult(accepted=False)
_ACCEPTED = InsertResult(accepted=True)
_DEFLECTED = InsertResult(accepted=True, miss=True, deflected=True)


def _priority(key: tuple[int, int, int]) -> tuple[int, int, int]:
    """A row's rank under thrashing: ``(wave, thread, inst)``, larger
    is younger."""
    return (key[1], key[0], key[2])


class MatchingTable:
    """Banked, set-associative operand cache for one PE."""

    def __init__(
        self,
        entries: int,
        associativity: int,
        banks: int,
        hash_k: int,
    ) -> None:
        if entries % associativity:
            raise ValueError("entries must be a multiple of associativity")
        self.entries = entries
        self.associativity = associativity
        self.banks = banks
        self.hash_k = max(1, hash_k)
        self.sets = max(1, entries // associativity)
        #: Instruction groups of the tuned hash (see :meth:`set_index`),
        #: precomputed once instead of divided on every insert.
        self._groups = self.sets // self.hash_k
        #: Resident rows: ``(thread, wave, inst)`` -> ``{port: value}``.
        self._rows: dict[tuple[int, int, int], dict[int, Value]] = {}
        #: Set index -> keys of its resident rows, oldest first.
        self._by_set: dict[int, list[tuple[int, int, int]]] = {}
        self._bank_cycle = -1
        self._bank_used: dict[int, int] = {}

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._rows)

    def occupancy(self) -> float:
        return len(self._rows) / self.entries if self.entries else 0.0

    def set_index(self, slot: int, wave: int) -> int:
        """The tuned hash of Section 4.2: ``I*k + (w mod k)``.

        The table is organised as ``sets/k`` instruction groups of
        ``k`` wave slots; the instruction picks the group, the wave
        picks the slot within it.  (Naively taking ``(I*k + w%k) mod
        sets`` would alias every instruction onto ``gcd(k, sets)``
        sets when the table is small.)  Tables smaller than one group
        fall back to a plain mixed hash.
        """
        k = self.hash_k
        groups = self._groups
        if groups >= 1:
            return (slot % groups) * k + (wave % k)
        return (slot + wave) % self.sets

    def lookup(self, key: tuple[int, int, int]) -> Optional[MatchRow]:
        ports = self._rows.get(key)
        return None if ports is None else MatchRow(key, ports)

    # ------------------------------------------------------------------
    def insert(
        self,
        key: tuple[int, int, int],
        port: int,
        value: Value,
        slot: int,
        arity: int,
        cycle: int,
    ) -> InsertResult:
        """Offer one operand to the table at ``cycle``.

        Enforces the 4-arrivals-per-cycle bank limit; on success either
        records the operand, completes the row (``fired``), or evicts a
        victim to the overflow table (``miss``).  A single-operand
        instruction fires without taking a way, but still needs one
        free (or evicts for it).
        """
        set_idx = self.set_index(slot, key[1])
        if cycle != self._bank_cycle:
            self._bank_cycle = cycle
            self._bank_used = {}
        bank = set_idx % self.banks
        if bank in self._bank_used:
            return _REJECTED
        self._bank_used[bank] = 1

        rows = self._rows
        ports = rows.get(key)
        if ports is not None:
            ports[port] = value
            if len(ports) >= arity:
                self._remove(key, set_idx)
                return InsertResult(accepted=True, fired=MatchRow(key, ports))
            return _ACCEPTED

        ways = self._by_set.setdefault(set_idx, [])
        evicted = None
        if len(ways) >= self.associativity:
            # Oldest-first priority under thrashing: evict the youngest
            # resident row, or deflect the incoming token to the
            # overflow table if it is itself the youngest.  Because the
            # order is total, the globally oldest pending instance
            # always keeps its row, its partner operands join it on
            # arrival (lookup precedes allocation), and it eventually
            # fires -- guaranteeing forward progress however small the
            # table.
            victim = max(ways, key=_priority)
            if _priority(key) >= _priority(victim):
                return _DEFLECTED
            evicted = MatchRow(victim, rows[victim])
            self._remove(victim, set_idx)
        if arity <= 1:
            return InsertResult(
                accepted=True, fired=MatchRow(key, {port: value}),
                evicted=evicted, miss=evicted is not None,
            )
        rows[key] = {port: value}
        ways.append(key)
        if evicted is None:
            return _ACCEPTED
        return InsertResult(accepted=True, evicted=evicted, miss=True)

    def pending_rows(self) -> list[MatchRow]:
        """All partially filled rows (deadlock diagnostics)."""
        return [MatchRow(key, ports) for key, ports in self._rows.items()]

    # ------------------------------------------------------------------
    def _remove(self, key: tuple[int, int, int], set_idx: int) -> None:
        del self._rows[key]
        self._by_set[set_idx].remove(key)
