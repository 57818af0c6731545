"""The dataflow graph: a complete WaveScalar program binary.

A :class:`DataflowGraph` is the unit the toolchain produces, the
placement phase maps onto PEs, and the simulator executes.  It bundles
the instruction array, the program entry tokens, initial memory image,
and per-thread metadata.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .instruction import Dest, Instruction
from .opcodes import Opcode
from .token import Token


@dataclass(slots=True)
class ThreadInfo:
    """Metadata for one programmer-created thread."""

    thread_id: int
    #: Static ids of instructions that (predominantly) execute in this
    #: thread; used by placement to isolate threads on the die.
    instructions: tuple[int, ...] = ()
    label: str = ""


@dataclass
class DataflowGraph:
    """A complete WaveScalar program.

    Attributes
    ----------
    instructions:
        Dense list; ``instructions[i].inst_id == i``.
    entry_tokens:
        Tokens injected into the machine at cycle 0 (program arguments
        and the constant-trigger tokens that kick off execution).
    initial_memory:
        Sparse initial data-memory image (word address -> value).
    threads:
        Thread metadata, including the instruction partition used by
        thread-aware placement.
    name:
        Program name (workload id).
    """

    instructions: list[Instruction]
    entry_tokens: list[Token] = field(default_factory=list)
    initial_memory: dict[int, int | float] = field(default_factory=dict)
    threads: list[ThreadInfo] = field(default_factory=list)
    name: str = "anonymous"

    # ------------------------------------------------------------------
    # Container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.instructions)

    def __getitem__(self, inst_id: int) -> Instruction:
        return self.instructions[inst_id]

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    # ------------------------------------------------------------------
    # Derived structure
    # ------------------------------------------------------------------
    def edges(self) -> Iterable[tuple[int, Dest]]:
        """All (producer_id, destination) pairs in the program."""
        for inst in self.instructions:
            for dest in inst.all_dests:
                yield inst.inst_id, dest

    @property
    def memory_instructions(self) -> list[Instruction]:
        return [i for i in self.instructions if i.opcode.is_memory]

    def alpha_equivalent_ids(self) -> frozenset[int]:
        """Ids of instructions counted toward AIPC."""
        return frozenset(
            i.inst_id for i in self.instructions if i.opcode.alpha_equivalent
        )

    def thread_of_instruction(self) -> dict[int, int]:
        """Map from instruction id to owning thread (default thread 0)."""
        owner: dict[int, int] = {}
        for tinfo in self.threads:
            for inst_id in tinfo.instructions:
                owner[inst_id] = tinfo.thread_id
        for inst in self.instructions:
            owner.setdefault(inst.inst_id, 0)
        return owner

    # ------------------------------------------------------------------
    # Integrity
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Raise ``ValueError`` on structural corruption.

        Checks id density, destination ranges and port ranges.  Deeper
        semantic checks live in :mod:`repro.isa.verify`.
        """
        for i, inst in enumerate(self.instructions):
            if inst.inst_id != i:
                raise ValueError(
                    f"instruction ids must be dense: slot {i} holds "
                    f"i{inst.inst_id}"
                )
            for dest in inst.all_dests:
                if not 0 <= dest.inst < len(self.instructions):
                    raise ValueError(
                        f"i{i} targets nonexistent instruction i{dest.inst}"
                    )
                target = self.instructions[dest.inst]
                if not 0 <= dest.port < target.arity:
                    raise ValueError(
                        f"i{i} targets port {dest.port} of i{dest.inst} "
                        f"({target.opcode.name} has arity {target.arity})"
                    )
        for token in self.entry_tokens:
            if not 0 <= token.inst < len(self.instructions):
                raise ValueError(
                    f"entry token targets nonexistent instruction "
                    f"i{token.inst}"
                )
            target = self.instructions[token.inst]
            if not 0 <= token.port < target.arity:
                raise ValueError(
                    f"entry token targets port {token.port} of i{token.inst}"
                    f" ({target.opcode.name} has arity {target.arity})"
                )

    def output_instruction_ids(self) -> list[int]:
        """Ids of OUTPUT instructions, in id order."""
        return [
            i.inst_id for i in self.instructions if i.opcode is Opcode.OUTPUT
        ]

    def summary(self) -> str:
        """One-line description used in logs and example scripts."""
        n_mem = len(self.memory_instructions)
        n_thread = max(1, len(self.threads))
        return (
            f"{self.name}: {len(self.instructions)} static instructions "
            f"({n_mem} memory), {n_thread} thread(s), "
            f"{len(self.entry_tokens)} entry tokens"
        )
