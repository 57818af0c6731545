"""Static instruction encoding.

A WaveScalar binary is a dataflow graph.  Each node is an
:class:`Instruction`: an opcode, an optional immediate, destination lists
(who consumes each produced value) and, for memory operations, a
wave-ordering annotation.

Destinations are *port-addressed*: a destination ``(inst, port)`` says
"send my result to input ``port`` of instruction ``inst``".  STEER
instructions have two destination lists (taken / not-taken).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .opcodes import Opcode
from .waves import WaveAnnotation


@dataclass(frozen=True, slots=True)
class Dest:
    """One destination of an instruction's result."""

    inst: int
    port: int

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"i{self.inst}[{self.port}]"


@dataclass(slots=True)
class Instruction:
    """A static instruction (node of the dataflow graph).

    Attributes
    ----------
    inst_id:
        Dense static id, unique within the program.
    opcode:
        The operation performed when the instruction fires.
    dests:
        Consumers of the result.  For STEER these are the *taken*
        destinations.
    false_dests:
        For STEER/MERGE only: destinations used when the predicate is
        false.
    immediate:
        CONST value, WAVE_ADVANCE stride, or shift amounts baked into the
        instruction word.
    wave_annotation:
        ``<prev, this, next>`` triple; present exactly when
        ``opcode.is_memory``.
    thread_local:
        Hint from the toolchain that every producer and consumer lives in
        the same thread (used by placement).
    label:
        Optional human-readable name for debugging/disassembly.
    """

    inst_id: int
    opcode: Opcode
    dests: tuple[Dest, ...] = ()
    false_dests: tuple[Dest, ...] = ()
    immediate: Optional[int | float] = None
    wave_annotation: Optional[WaveAnnotation] = None
    thread_local: bool = True
    label: str = ""

    def __post_init__(self) -> None:
        if self.opcode.is_memory and self.wave_annotation is None:
            raise ValueError(
                f"memory instruction i{self.inst_id} ({self.opcode.name}) "
                "requires a wave annotation"
            )
        if not self.opcode.is_memory and self.wave_annotation is not None:
            raise ValueError(
                f"non-memory instruction i{self.inst_id} ({self.opcode.name}) "
                "must not carry a wave annotation"
            )
        if self.false_dests and self.opcode not in (Opcode.STEER, Opcode.MERGE):
            raise ValueError(
                f"only STEER/MERGE may have false destinations "
                f"(i{self.inst_id} is {self.opcode.name})"
            )

    @property
    def arity(self) -> int:
        return self.opcode.arity

    @property
    def all_dests(self) -> tuple[Dest, ...]:
        """Every destination regardless of predicate polarity."""
        return self.dests + self.false_dests

    @property
    def fanout(self) -> int:
        return len(self.dests) + len(self.false_dests)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        parts = [f"i{self.inst_id}: {self.opcode.name}"]
        if self.immediate is not None:
            parts.append(f"#{self.immediate}")
        if self.dests:
            parts.append("-> " + ",".join(map(repr, self.dests)))
        if self.false_dests:
            parts.append("/ " + ",".join(map(repr, self.false_dests)))
        if self.wave_annotation is not None:
            parts.append(repr(self.wave_annotation))
        if self.label:
            parts.append(f"({self.label})")
        return " ".join(parts)
